package core

import (
	"errors"
	"time"

	"ftmrmpi/internal/storage"
	"ftmrmpi/internal/vtime"
)

// Storage retry policy. Every charged storage call the runner and its
// checkpoint store make goes through retryIO, so the rules exist once: a
// transient fault (torn write, read error) is retried within the call's
// budget; a whole-tier outage is either waited out — never consuming budget —
// or, for calls that may simply give up, counted like any other failed
// attempt; anything else fails at once.

// Attempt budgets: how many times one call is issued before its caller gives
// up. The injector never faults the same path twice in a row, so a budget
// above two only matters when several callers interleave on one path (a
// primary and its shadow reading the same input chunk, say).
const (
	readBudget         = 3 // chunk and checkpoint-stream reads
	outputAppendBudget = 8 // reduce output commits: losing one fails the job
	ckptAppendBudget   = 4 // checkpoint frames and copier drains: losing one costs coverage only
	markerWriteBudget  = 4 // the job's DONE marker
)

// retryIO runs op until it succeeds or its budget of attempts is spent and
// returns the summed I/O wait with the last error. With waitOutage an
// ErrTierOutage parks the caller until the tier is back and the attempt is
// not counted; without it an outage is one more failed attempt.
func retryIO(p *vtime.Proc, t *storage.Tier, budget int, waitOutage bool, op func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for attempt := 1; ; attempt++ {
		d, err := op()
		total += d
		outage := errors.Is(err, storage.ErrTierOutage)
		switch {
		case err == nil:
			return total, nil
		case outage && waitOutage:
			t.AwaitOnline(p)
			attempt--
		case attempt >= budget,
			!outage && !errors.Is(err, storage.ErrReadFault) && !errors.Is(err, storage.ErrTornWrite):
			return total, err
		}
	}
}

// readRetry reads path from t into dst (Tier.ReadFileInto), accumulating the
// I/O wait into acc. Outages are waited out: every caller needs the bytes to
// make progress.
func readRetry(p *vtime.Proc, t *storage.Tier, path string, dst []byte, acc *time.Duration) ([]byte, error) {
	var data []byte
	d, err := retryIO(p, t, readBudget, true, func() (d time.Duration, err error) {
		data, d, err = t.ReadFileInto(p, path, dst)
		return d, err
	})
	*acc += d
	return data, err
}

// writeRetry writes path on t as one operation, waiting outages out. A torn
// write is simply overwritten by the retry.
func writeRetry(p *vtime.Proc, t *storage.Tier, path string, data []byte, budget int) (time.Duration, error) {
	return retryIO(p, t, budget, true, func() (time.Duration, error) {
		return t.WriteFile(p, path, data)
	})
}

// appendRollback retries appendOnce, one append to path on t (AppendFile of
// bytes, or AppendRun of a run), rolling every failed attempt back to the
// pre-append length so the file never accumulates a torn record boundary: on
// return it holds either all of the data or none of it. Silent bit flips are
// left in place — checkpoint frames carry a CRC that catches them at read
// time.
func appendRollback(p *vtime.Proc, t *storage.Tier, path string, budget int, waitOutage bool, appendOnce func() (time.Duration, error)) (time.Duration, error) {
	return retryIO(p, t, budget, waitOutage, func() (time.Duration, error) {
		pre := t.Size(path)
		d, err := appendOnce()
		if err != nil {
			t.Truncate(path, pre)
		}
		return d, err
	})
}

// peekOnline is Tier.PeekFrom that waits a whole-tier outage out instead of
// failing: for callers whose decision (is this stream restorable? where does
// the committed output end?) must not depend on when the outage fell.
func peekOnline(p *vtime.Proc, t *storage.Tier, path string, off int) ([]byte, error) {
	data, err := t.PeekFrom(path, off)
	if errors.Is(err, storage.ErrTierOutage) {
		t.AwaitOnline(p)
		data, err = t.PeekFrom(path, off)
	}
	return data, err
}
