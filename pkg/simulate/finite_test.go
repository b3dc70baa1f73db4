package simulate_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"cloudmedia"
	"cloudmedia/pkg/simulate"
)

// TestNonFiniteKnobsRejected: a NaN or ±Inf knob is an invalid scenario,
// both from NewScenario and from Run on a derived scenario. NaN passes
// every x <= 0 range guard, and a run that accepts it misbehaves: NaN
// hours report a "successful" 0-hour day, a NaN budget bills a full day,
// and a NaN sampling period never returns. Each Run gets a 5 s deadline
// and a watchdog, so a hang fails the test instead of stalling it.
func TestNonFiniteKnobsRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tests := []struct {
		name string
		opt  cloudmedia.Option
	}{
		{"NaN hours", cloudmedia.WithHours(nan)},
		{"NaN VM budget", cloudmedia.WithBudgets(nan, 1)},
		{"NaN sampling period", cloudmedia.WithSampleSeconds(nan)},
		{"+Inf hours", cloudmedia.WithHours(inf)},
		{"+Inf storage budget", cloudmedia.WithBudgets(100, inf)},
		{"NaN interval", cloudmedia.WithInterval(nan)},
		{"-Inf interval", cloudmedia.WithInterval(-inf)},
		{"NaN uplink ratio", cloudmedia.WithUplinkRatio(nan)},
		{"NaN scale", cloudmedia.WithScale(nan)},
		{"NaN viewer scale", cloudmedia.WithViewerScale(nan)},
		{"NaN chunk duration", cloudmedia.WithChunkSeconds(nan)},
		{"+Inf time scale", cloudmedia.WithTimeScale(inf)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := cloudmedia.NewScenario(cloudmedia.CloudAssisted, tc.opt); !errors.Is(err, simulate.ErrInvalidScenario) {
				t.Errorf("NewScenario: err = %v, want ErrInvalidScenario", err)
			}
			sc := simulate.Default(simulate.CloudAssisted, 1).With(tc.opt)
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := sc.Run(ctx)
				done <- err
			}()
			select {
			case err := <-done:
				if !errors.Is(err, simulate.ErrInvalidScenario) {
					t.Errorf("Run: err = %v, want ErrInvalidScenario", err)
				}
			case <-time.After(6 * time.Second):
				t.Fatal("Run ignored its 5 s deadline")
			}
		})
	}
}
