package client

import (
	"testing"
	"time"
)

// TestJitteredBackoffBounds pins the full-jitter distribution: every
// jittered sleep falls in [0, BaseDelay·2ⁿ] (capped), and over many draws
// both halves of that range are exercised — the whole point is that a
// recovering server is not hit by synchronized retries.
func TestJitteredBackoffBounds(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: true}
	const n = 2000
	ceiling := 400 * time.Millisecond // attempt 2: 100ms·2² uncapped
	var low, high int
	for i := 0; i < n; i++ {
		d := p.sleepFor(2, 0)
		if d < 0 || d > ceiling {
			t.Fatalf("jittered delay %v outside [0, %v]", d, ceiling)
		}
		if d < ceiling/2 {
			low++
		} else {
			high++
		}
	}
	if low == 0 || high == 0 {
		t.Errorf("no spread across the jitter range: %d low, %d high of %d draws", low, high, n)
	}
}

// TestJitterRespectsRetryAfter pins the floor: the server's Retry-After
// hint is never undercut by jitter.
func TestJitterRespectsRetryAfter(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: true}

	// Hint above the computed ceiling: the sleep is exactly the hint.
	for i := 0; i < 100; i++ {
		if d := p.sleepFor(0, 300*time.Millisecond); d != 300*time.Millisecond {
			t.Fatalf("sleepFor(0, 300ms) = %v, want exactly 300ms", d)
		}
	}
	// Hint inside the jitter range: the sleep stays within [hint, ceiling].
	for i := 0; i < 1000; i++ {
		d := p.sleepFor(2, 150*time.Millisecond)
		if d < 150*time.Millisecond || d > 400*time.Millisecond {
			t.Fatalf("sleepFor(2, 150ms) = %v outside [150ms, 400ms]", d)
		}
	}
}

// TestJitterOffIsDeterministic pins that a policy without Jitter sleeps the
// exact capped-exponential schedule (the contract TestBackoffDelays pins
// for delay).
func TestJitterOffIsDeterministic(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second}
	for attempt := 0; attempt < 5; attempt++ {
		for _, ra := range []time.Duration{0, 250 * time.Millisecond, 3 * time.Second} {
			if got, want := p.sleepFor(attempt, ra), p.delay(attempt, ra); got != want {
				t.Errorf("sleepFor(%d, %v) = %v, want %v", attempt, ra, got, want)
			}
		}
	}
}
