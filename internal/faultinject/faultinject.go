// Package faultinject is a deterministic, schedule-driven fault
// injector for chaos testing the serving stack.
//
// An Injector holds rules keyed by *site* — a named hook point such as
// "warm", "load" or "ingest" — and a per-site invocation counter. Each
// time a hook fires, the counter advances and the rules decide whether
// this particular invocation faults: return an injected error, sleep a
// latency spike, or corrupt a byte payload. The schedule is purely a
// function of (site, invocation index), so a chaos run with a fixed
// rule set replays identically.
//
// A nil *Injector is the production configuration: every hook is a
// branch-on-nil no-op, so the instrumented paths cost nothing when chaos
// testing is off.
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the root of every injected error; match with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Kind is the fault variety a rule injects.
type Kind int

const (
	// KindError makes the hook return an injected error.
	KindError Kind = iota
	// KindDelay makes the hook sleep the rule's Delay (a latency spike).
	KindDelay
	// KindCorrupt makes Corrupt flip one byte of the payload.
	KindCorrupt
)

// String renders the kind in the spec syntax.
func (k Kind) String() string {
	switch k {
	case KindError:
		return "err"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Rule schedules one fault kind at one site. It matches invocation n
// (0-based, per site) when From <= n <= To and (n-From) is a multiple of
// Every. The zero To means "exactly From"; Every <= 1 means every
// matching index in [From, To].
type Rule struct {
	Site  string
	Kind  Kind
	From  int
	To    int
	Every int
	// Delay is the sleep injected by KindDelay rules.
	Delay time.Duration
}

func (r Rule) matches(n int) bool {
	to := r.To
	if to == 0 {
		to = r.From
	}
	if n < r.From || n > to {
		return false
	}
	if r.Every > 1 {
		return (n-r.From)%r.Every == 0
	}
	return true
}

// Injector evaluates fault rules against per-site invocation counters.
// Methods are safe for concurrent use; a nil receiver disables all
// injection.
type Injector struct {
	mu     sync.Mutex
	rules  []Rule
	counts map[string]int
	// sleep is swapped by tests so delay faults do not slow the suite.
	sleep func(time.Duration)
}

// New builds an injector from rules. Sites referenced by no rule simply
// count invocations without ever faulting.
func New(rules ...Rule) *Injector {
	return &Injector{
		rules:  rules,
		counts: make(map[string]int),
		sleep:  time.Sleep,
	}
}

// Parse builds an injector from a compact spec: semicolon-separated
// items of the form
//
//	site:kind@from[-to][/every]
//
// where kind is "err", "corrupt" or "delay=DURATION", to may be "*"
// (open-ended) and every defaults to 1. Example:
//
//	ingest:err@3-6;load:corrupt@2;warm:delay=50ms@0-*/2
//
// injects write errors on ingest invocations 3..6, corrupts the 3rd
// load payload, and delays every second warm by 50ms.
func Parse(spec string) (*Injector, error) {
	var rules []Rule
	for _, raw := range strings.Split(spec, ";") {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		site, rest, ok := strings.Cut(raw, ":")
		if !ok || site == "" {
			return nil, fmt.Errorf("faultinject: %q: want site:kind@selector", raw)
		}
		kindSpec, sel, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("faultinject: %q: missing @selector", raw)
		}
		r := Rule{Site: site}
		switch {
		case kindSpec == "err":
			r.Kind = KindError
		case kindSpec == "corrupt":
			r.Kind = KindCorrupt
		case strings.HasPrefix(kindSpec, "delay="):
			d, err := time.ParseDuration(strings.TrimPrefix(kindSpec, "delay="))
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: %q: bad delay: %v", raw, err)
			}
			r.Kind, r.Delay = KindDelay, d
		default:
			return nil, fmt.Errorf("faultinject: %q: unknown kind %q (want err, corrupt or delay=DUR)", raw, kindSpec)
		}
		if every, rest, ok := cutLast(sel, "/"); ok {
			n, err := strconv.Atoi(every)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("faultinject: %q: bad every %q", raw, every)
			}
			r.Every, sel = n, rest
		}
		from, to, ranged := strings.Cut(sel, "-")
		n, err := strconv.Atoi(from)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("faultinject: %q: bad index %q", raw, from)
		}
		r.From, r.To = n, 0
		if ranged {
			if to == "*" {
				r.To = math.MaxInt
			} else {
				m, err := strconv.Atoi(to)
				if err != nil || m < n {
					return nil, fmt.Errorf("faultinject: %q: bad range end %q", raw, to)
				}
				r.To = m
			}
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, errors.New("faultinject: empty spec")
	}
	return New(rules...), nil
}

// cutLast is strings.Cut on the last occurrence of sep, returning
// (after, before, true).
func cutLast(s, sep string) (after, before string, ok bool) {
	i := strings.LastIndex(s, sep)
	if i < 0 {
		return "", s, false
	}
	return s[i+len(sep):], s[:i], true
}

// next advances and returns the site's invocation index, plus the first
// error/delay rule matching it (corrupt rules are left to Corrupt).
func (in *Injector) next(site string, wantCorrupt bool) (int, *Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.counts[site]
	in.counts[site] = n + 1
	for i := range in.rules {
		r := &in.rules[i]
		if r.Site != site || !r.matches(n) {
			continue
		}
		if (r.Kind == KindCorrupt) == wantCorrupt {
			return n, r
		}
	}
	return n, nil
}

// Fire marks one invocation of site and applies its scheduled fault:
// KindError returns an error wrapping ErrInjected, KindDelay sleeps.
// Corrupt-kind rules are ignored here (use Corrupt). Nil-safe no-op.
func (in *Injector) Fire(site string) error {
	if in == nil {
		return nil
	}
	n, r := in.next(site, false)
	if r == nil {
		return nil
	}
	switch r.Kind {
	case KindError:
		return fmt.Errorf("faultinject: %s invocation %d: %w", site, n, ErrInjected)
	case KindDelay:
		in.sleep(r.Delay)
	}
	return nil
}

// Corrupt marks one invocation of site and, when a corrupt-kind rule
// matches, returns a copy of b with one deterministically chosen byte
// bit-flipped (b itself is never mutated). Otherwise it returns b
// unchanged. Nil-safe no-op.
func (in *Injector) Corrupt(site string, b []byte) []byte {
	if in == nil {
		return b
	}
	n, r := in.next(site, true)
	if r == nil || len(b) == 0 {
		return b
	}
	out := make([]byte, len(b))
	copy(out, b)
	// Flip a bit at a position derived from the invocation index so
	// successive corruptions hit different offsets, reproducibly.
	pos := (n*2654435761 + 17) % len(out)
	out[pos] ^= 0x40
	return out
}

// Count returns how many times site has fired (Fire or Corrupt).
func (in *Injector) Count(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[site]
}

// Sites returns the sites observed so far, sorted (for logs and tests).
func (in *Injector) Sites() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, 0, len(in.counts))
	for s := range in.counts {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SetSleep replaces the delay-fault sleeper (tests only).
func (in *Injector) SetSleep(fn func(time.Duration)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sleep = fn
}
