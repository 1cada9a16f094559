// Package resilience is the operational-robustness layer: goroutine
// supervision with bounded-backoff restart, admission gates and request
// deadlines for the HTTP surfaces, a health state machine, an adaptive
// degradation ladder, and a crash-safe incremental checkpoint store.
//
// The package follows the same ownership discipline as the rest of the
// tree: supervision wraps goroutine bodies without adding synchronization
// to them, gates are a single buffered channel, and every counter is a
// telemetry.Cell published with atomic stores — nothing here touches the
// packet path.
package resilience

import (
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"rhhh/internal/telemetry"
)

// Stats is the supervision telemetry block, shared by every Policy that
// points at it. Cells are written with atomic Add from supervised
// goroutines (restart frequency is bounded by backoff, so contention is
// irrelevant).
type Stats struct {
	Panics     telemetry.Cell // panics captured in supervised goroutines
	Restarts   telemetry.Cell // supervised restarts after a panic
	GiveUps    telemetry.Cell // supervised goroutines abandoned after MaxRestarts
	Supervised telemetry.Cell // supervised goroutines currently running
}

// Register wires the block under the hhh_resilience_* names.
func (s *Stats) Register(r *telemetry.Registry, labels string) {
	r.Counter("hhh_resilience_panics_total", labels, "Panics captured in supervised goroutines.", &s.Panics)
	r.Counter("hhh_resilience_restarts_total", labels, "Supervised goroutine restarts after a captured panic.", &s.Restarts)
	r.Counter("hhh_resilience_giveups_total", labels, "Supervised goroutines abandoned after exhausting restarts.", &s.GiveUps)
	r.Gauge("hhh_resilience_supervised", labels, "Supervised goroutines currently running.", &s.Supervised)
}

// Policy configures the supervisor. The zero value (and a nil *Policy) is
// usable: 10ms initial backoff doubling to 2s, give-up after 8 consecutive
// panics, stacks logged to stderr. Fields must be set before the first
// Go/Protect call and not mutated afterwards.
type Policy struct {
	// Backoff is the delay before the first restart; it doubles per
	// consecutive panic up to MaxBackoff. Default 10ms / 2s.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// MaxRestarts bounds consecutive panics before the supervisor gives
	// up on the goroutine (0 = default 8, negative = unlimited). A body
	// that stays up for ResetAfter (default 10s) resets the count.
	MaxRestarts int
	ResetAfter  time.Duration
	// OnPanic runs after every captured panic with the recovered value
	// and stack; OnGiveUp runs when the supervisor abandons a goroutine —
	// the escalation hook (mark the process failing, alert, exit).
	OnPanic  func(name string, v any, stack []byte)
	OnGiveUp func(name string, v any)
	// Logf replaces the default stderr logger. Set to a no-op to silence
	// expected panics in tests.
	Logf  func(format string, args ...any)
	Stats *Stats
}

// Default is the process-wide fallback policy used by library code that
// was not handed an explicit one (sliding Windowed deliveries, vswitch
// transports).
var Default = &Policy{}

const (
	defaultBackoff     = 10 * time.Millisecond
	defaultMaxBackoff  = 2 * time.Second
	defaultMaxRestarts = 8
	defaultResetAfter  = 10 * time.Second
)

func (p *Policy) orDefault() *Policy {
	if p == nil {
		return Default
	}
	return p
}

func (p *Policy) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
		return
	}
	fmt.Fprintf(os.Stderr, "resilience: "+format+"\n", args...)
}

// run executes body once, capturing a panic with its stack.
func (p *Policy) run(body func()) (v any, stack []byte, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			v, stack, panicked = r, debug.Stack(), true
		}
	}()
	body()
	return nil, nil, false
}

// notePanic records one captured panic.
func (p *Policy) notePanic(name string, v any, stack []byte) {
	if p.Stats != nil {
		p.Stats.Panics.Add(1)
	}
	p.logf("%s: panic: %v\n%s", name, v, stack)
	if p.OnPanic != nil {
		p.OnPanic(name, v, stack)
	}
}

// Protect runs body once on the calling goroutine, converting a panic into
// a captured, logged event. It reports whether body panicked. Use it for
// one-shot goroutines whose restart semantics live with the caller.
func (p *Policy) Protect(name string, body func()) (panicked bool) {
	p = p.orDefault()
	v, stack, panicked := p.run(body)
	if panicked {
		p.notePanic(name, v, stack)
	}
	return panicked
}

// Go starts body on a supervised goroutine. A normal return ends
// supervision; a panic is captured, logged, and followed by a restart
// after an exponential backoff, until MaxRestarts consecutive panics
// exhaust the policy (OnGiveUp fires) or stop closes. The returned channel
// closes when the goroutine has permanently exited, whatever the reason.
//
// stop may be nil (the body then runs until it returns or gives up).
// Closing stop does not interrupt a running body — bodies observe their
// own shutdown signal; stop only prevents further restarts.
func (p *Policy) Go(name string, stop <-chan struct{}, body func()) <-chan struct{} {
	p = p.orDefault()
	done := make(chan struct{})
	if p.Stats != nil {
		p.Stats.Supervised.Add(1)
	}
	go func() {
		defer close(done)
		if p.Stats != nil {
			defer func() { p.Stats.Supervised.Add(^uint64(0)) }()
		}
		backoff := p.Backoff
		if backoff <= 0 {
			backoff = defaultBackoff
		}
		maxBackoff := p.MaxBackoff
		if maxBackoff <= 0 {
			maxBackoff = defaultMaxBackoff
		}
		maxRestarts := p.MaxRestarts
		if maxRestarts == 0 {
			maxRestarts = defaultMaxRestarts
		}
		resetAfter := p.ResetAfter
		if resetAfter <= 0 {
			resetAfter = defaultResetAfter
		}
		delay := backoff
		consecutive := 0
		for {
			start := time.Now()
			v, stack, panicked := p.run(body)
			if !panicked {
				return // intentional exit
			}
			p.notePanic(name, v, stack)
			if time.Since(start) >= resetAfter {
				consecutive, delay = 0, backoff
			}
			consecutive++
			if maxRestarts > 0 && consecutive > maxRestarts {
				if p.Stats != nil {
					p.Stats.GiveUps.Add(1)
				}
				p.logf("%s: giving up after %d consecutive panics", name, consecutive)
				if p.OnGiveUp != nil {
					p.OnGiveUp(name, v)
				}
				return
			}
			t := time.NewTimer(delay)
			select {
			case <-stop:
				t.Stop()
				return
			case <-t.C:
			}
			if delay *= 2; delay > maxBackoff {
				delay = maxBackoff
			}
			select {
			case <-stop:
				return
			default:
			}
			if p.Stats != nil {
				p.Stats.Restarts.Add(1)
			}
			p.logf("%s: restarting (attempt %d)", name, consecutive)
		}
	}()
	return done
}
