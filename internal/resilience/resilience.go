// Package resilience holds the serving stack's retry primitive: retry
// with exponential backoff and full jitter.
//
// It is deliberately free of any serving-specific types so it can wrap
// anything that returns an error; the SIGHUP model-reload path retries
// with it. Tests inject the sleeper, so every schedule is deterministic.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Policy parameterises Retry. The zero value is invalid; use a positive
// MaxAttempts and BaseDelay.
type Policy struct {
	// MaxAttempts is the total number of tries, including the first.
	MaxAttempts int
	// BaseDelay is the backoff cap for the first retry; the cap doubles
	// per attempt (full jitter draws uniformly from [0, cap]).
	BaseDelay time.Duration
	// MaxDelay bounds the backoff cap. Zero means no bound.
	MaxDelay time.Duration
	// Seed, when non-zero, makes the jitter sequence deterministic.
	Seed int64
	// Sleep replaces the delay between attempts; nil uses a real timer
	// honouring ctx. Tests use it to run schedules instantly.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Retry runs fn up to p.MaxAttempts times, sleeping an exponentially
// capped, fully jittered delay between attempts (the AWS "full jitter"
// schedule: delay ~ Uniform[0, min(MaxDelay, BaseDelay*2^attempt)]).
// It returns nil on the first success; after the final attempt it returns
// the last error. A cancelled context stops the schedule immediately and
// the context error joins the last attempt's error.
func Retry(ctx context.Context, p Policy, fn func() error) error {
	if p.MaxAttempts < 1 {
		return errors.New("resilience: MaxAttempts must be >= 1")
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var rng *rand.Rand
	if p.Seed != 0 {
		rng = rand.New(rand.NewSource(p.Seed))
	}
	var lastErr error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := jitteredDelay(p, rng, attempt-1)
			if err := sleep(ctx, d); err != nil {
				return errors.Join(lastErr, err)
			}
		}
		if err := ctx.Err(); err != nil {
			return errors.Join(lastErr, err)
		}
		if lastErr = fn(); lastErr == nil {
			return nil
		}
	}
	return fmt.Errorf("resilience: %d attempts: %w", p.MaxAttempts, lastErr)
}

// jitteredDelay draws the full-jitter backoff for the given retry index
// (0 = delay before the second attempt).
func jitteredDelay(p Policy, rng *rand.Rand, retry int) time.Duration {
	cap := p.BaseDelay
	for i := 0; i < retry && cap < 1<<40; i++ {
		cap *= 2
	}
	if p.MaxDelay > 0 && cap > p.MaxDelay {
		cap = p.MaxDelay
	}
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		u = rand.Float64()
	}
	return time.Duration(u * float64(cap))
}

// sleepCtx is the production sleeper: a timer that honours cancellation.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
