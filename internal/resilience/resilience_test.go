package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	calls := 0
	var slept []time.Duration
	err := Retry(context.Background(), Policy{
		MaxAttempts: 5,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    time.Second,
		Seed:        42,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Retry = %v, want nil", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %d, want 2", len(slept))
	}
	// Full jitter: each delay within [0, cap] with the cap doubling.
	caps := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	for i, d := range slept {
		if d < 0 || d > caps[i] {
			t.Errorf("sleep %d = %v, want within [0, %v]", i, d, caps[i])
		}
	}
}

func TestRetryJitterDeterministicUnderSeed(t *testing.T) {
	run := func() []time.Duration {
		var slept []time.Duration
		_ = Retry(context.Background(), Policy{
			MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, Seed: 7,
			Sleep: func(_ context.Context, d time.Duration) error {
				slept = append(slept, d)
				return nil
			},
		}, func() error { return errors.New("always") })
		return slept
	}
	a, b := run(), run()
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("sleeps = %d/%d, want 3/3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sleep %d differs across seeded runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	sentinel := errors.New("permanent")
	err := Retry(context.Background(), Policy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1,
		Sleep: func(context.Context, time.Duration) error { return nil },
	}, func() error { calls++; return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("Retry = %v, want wrapped sentinel", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestRetryMaxDelayCapsBackoff(t *testing.T) {
	var slept []time.Duration
	_ = Retry(context.Background(), Policy{
		MaxAttempts: 8, BaseDelay: 100 * time.Millisecond, MaxDelay: 150 * time.Millisecond, Seed: 3,
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}, func() error { return errors.New("always") })
	for i, d := range slept {
		if d > 150*time.Millisecond {
			t.Errorf("sleep %d = %v exceeds MaxDelay", i, d)
		}
	}
}

func TestRetryStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Retry(ctx, Policy{
		MaxAttempts: 10, BaseDelay: time.Millisecond, Seed: 1,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			return ctx.Err()
		},
	}, func() error { calls++; return errors.New("transient") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Retry = %v, want context.Canceled in chain", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1 (cancel during first backoff)", calls)
	}
}

func TestRetryRejectsZeroAttempts(t *testing.T) {
	if err := Retry(context.Background(), Policy{}, func() error { return nil }); err == nil {
		t.Fatal("Retry with MaxAttempts 0 should error")
	}
}
