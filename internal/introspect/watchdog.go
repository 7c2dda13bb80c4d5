package introspect

import (
	"fmt"
	"io"
	"time"
)

// Watchdog is the wall-clock stall detector. It runs on a real goroutine
// (the only part of the plane that does), polling every interval of wall
// clock; it never touches simulator state directly. The capture path
// publishes a progress beacon under the plane mutex at every safe-point
// snapshot, and the watchdog compares successive reads: two consecutive
// polls with an unchanged beacon mean the configured wall interval elapsed
// with zero virtual-time progress, and a structured no-progress stall
// report is raised from the last captured snapshot.
//
// The interval must comfortably exceed the expected wall time between
// capture callbacks (the beacon only advances at captures); the ftmr-sim
// flag documents this.
type Watchdog struct {
	pl   *Plane
	out  io.Writer
	stop chan struct{}
	done chan struct{}
	last uint64
	// seen tracks whether last holds a real observation yet: the first poll
	// only baselines, so a watchdog interval shorter than the time to the
	// first capture cannot fire spuriously at startup.
	seen  bool
	fired bool
}

// StartWatchdog arms a wall-clock watchdog that polls every interval; out
// (usually stderr) receives the human-readable report when it fires. Call
// Stop when the run completes. Returns nil on a nil plane or a
// non-positive interval.
func (pl *Plane) StartWatchdog(interval time.Duration, out io.Writer) *Watchdog {
	if pl == nil || interval <= 0 {
		return nil
	}
	wd := &Watchdog{pl: pl, out: out, stop: make(chan struct{}), done: make(chan struct{})}
	pl.mu.Lock()
	pl.watchdog = wd
	pl.mu.Unlock()
	go func() {
		defer close(wd.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-wd.stop:
				return
			case <-t.C:
				if wd.check() {
					return
				}
			}
		}
	}()
	return wd
}

// Stop terminates the watchdog goroutine and waits for it to exit. Safe to
// call on a nil watchdog, and idempotent.
func (wd *Watchdog) Stop() {
	if wd == nil {
		return
	}
	select {
	case <-wd.stop:
	default:
		close(wd.stop)
	}
	<-wd.done
}

// check performs one poll: it fires (once) when the progress beacon has not
// advanced since the previous poll. Split out so tests can drive it
// synchronously. Returns whether it fired.
func (wd *Watchdog) check() bool {
	pl := wd.pl
	pl.mu.Lock()
	beacon := pl.beacon
	snap := pl.lastSnap
	pl.mu.Unlock()
	if !wd.seen || beacon != wd.last {
		wd.seen = true
		wd.last = beacon
		return false
	}
	if wd.fired {
		return true
	}
	wd.fired = true

	rep := StallReport{Kind: lineStall, Reason: ReasonNoProgress, OldestUS: -1}
	if snap != nil {
		rep.VTus = snap.VTus
		for i := range snap.Ranks {
			rs := &snap.Ranks[i]
			switch rs.State {
			case StateRecv, StateColl, StateDrain, StateParked:
				rep.Members = append(rep.Members, StallMember{Rank: rs.Rank, Reason: waitReason(rs)})
				if rs.PostedUS >= 0 && (rep.OldestUS < 0 || rs.PostedUS < rep.OldestUS) {
					rep.OldestUS = rs.PostedUS
				}
			}
		}
	}

	pl.mu.Lock()
	pl.stalls = append(pl.stalls, rep)
	pl.journal = append(pl.journal, Line{Stall: &pl.stalls[len(pl.stalls)-1]})
	if pl.stream != nil {
		pl.stream.Write(rep)
		_ = pl.stream.Flush() // sticky: FlushStream reports it
	}
	pl.mu.Unlock()

	if wd.out != nil {
		fmt.Fprintf(wd.out, "introspect: watchdog: no virtual-time progress across one wall interval (vt=%.0fus)\n", rep.VTus)
		for _, m := range rep.Members {
			fmt.Fprintf(wd.out, "introspect:   rank %d: %s\n", m.Rank, m.Reason)
		}
	}
	return true
}
