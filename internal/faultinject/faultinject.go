// Package faultinject provides flag/env-armed fault points for chaos
// testing. Production code calls the cheap query helpers (Armed, Delay,
// Once, ...) at well-known points; unless a fault spec has been armed
// via Arm or the REDS_FAULTS environment variable, every helper is a
// single atomic pointer load that returns the zero value, so the hooks
// cost nothing in normal operation.
//
// A fault spec is a comma-separated list of name=value pairs, e.g.
//
//	exec.start.delay=200ms,exec.exit-after=discover/,store.wal.torn=once
//
// The names are free-form: each call site defines the point it consults
// (see docs/ARCHITECTURE.md "Fault injection"). The wired points are
// exec.start.delay and exec.status.delay (hold the handler),
// exec.start.drop and exec.status.drop (drop one connection),
// exec.exit-after=<span prefix> (exit the worker right after it served
// a checkpoint covering a matching span) and store.wal.torn (tear one
// WAL append).
// Values are interpreted by the helper the call site uses — Duration
// parses them with time.ParseDuration, Once fires at most one time per
// armed spec regardless of value, and Value hands back the raw string.
package faultinject

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// injector is an immutable snapshot of armed fault points. Swapping the
// whole snapshot atomically keeps queries race-free without locking.
type injector struct {
	points map[string]string
	onces  sync.Map // point name -> *sync.Once
}

var active atomic.Pointer[injector]

// Arm replaces the active fault set with the given spec. An empty spec
// disarms everything. Arm returns an error (and leaves the previous set
// in place) if the spec is malformed.
func Arm(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		Disarm()
		return nil
	}
	points := make(map[string]string)
	for _, pair := range strings.Split(spec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, value, ok := strings.Cut(pair, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return fmt.Errorf("faultinject: malformed fault %q (want name=value)", pair)
		}
		points[name] = strings.TrimSpace(value)
	}
	if len(points) == 0 {
		Disarm()
		return nil
	}
	active.Store(&injector{points: points})
	return nil
}

// Disarm removes all fault points.
func Disarm() { active.Store(nil) }

// Enabled reports whether any fault point is armed. Call sites with
// non-trivial setup can use it as a fast bail-out.
func Enabled() bool { return active.Load() != nil }

// Armed reports whether the named fault point is armed.
func Armed(point string) bool {
	_, ok := Value(point)
	return ok
}

// Value returns the raw value armed for the point, if any.
func Value(point string) (string, bool) {
	inj := active.Load()
	if inj == nil {
		return "", false
	}
	v, ok := inj.points[point]
	return v, ok
}

// Duration returns the armed value parsed as a duration, or zero when
// the point is unarmed or its value does not parse.
func Duration(point string) time.Duration {
	v, ok := Value(point)
	if !ok {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0
	}
	return d
}

// Delay sleeps for the armed duration of the point, if any.
func Delay(point string) {
	if d := Duration(point); d > 0 {
		time.Sleep(d)
	}
}

// Once reports true exactly one time per armed spec for the given
// point: the first caller after arming wins, later callers (and all
// callers of unarmed points) get false. Re-arming resets the fuse.
func Once(point string) bool {
	inj := active.Load()
	if inj == nil {
		return false
	}
	if _, ok := inj.points[point]; !ok {
		return false
	}
	o, _ := inj.onces.LoadOrStore(point, new(sync.Once))
	fired := false
	o.(*sync.Once).Do(func() { fired = true })
	return fired
}
