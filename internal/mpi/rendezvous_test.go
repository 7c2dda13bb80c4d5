package mpi

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The rendezvous' policies, one row per (collective, interruption): who is
// interrupted and with what, who completes and with what, and when each call
// returns. Four ranks; a rank makes its calls in order, each at its instant;
// the victim, if any, dies at one second; a call marked revoke revokes the
// communicator first. Every entrant of a Shrink or an Agree, the one whose
// own arrival finishes it included, returns 2*ceil(log2(P+1)) = 6 NIC
// latencies after it finishes (released).
func TestRendezvousPolicies(t *testing.T) {
	const s = time.Second
	lat := testCluster(2, 2).Cfg.NICLatency
	released := func(done time.Duration) time.Duration { return done + 6*lat }

	type call struct {
		at     time.Duration
		flag   int // Agree's argument
		revoke bool
	}
	type outcome struct {
		err string // "", "failed" (ProcFailedError) or "revoked"
		val int    // Agree's result; the size of the communicator Shrink built
		at  time.Duration
	}
	failed := func(at time.Duration) outcome { return outcome{"failed", 0, at} }
	revoked := func(at time.Duration) outcome { return outcome{"revoked", 0, at} }

	// op is the collective a row calls: the part of its name before the slash.
	run := func(op string, calls [4][]call, victim int) [4][]outcome {
		clus := testCluster(2, 2)
		var got [4][]outcome
		w := Launch(clus, 4, func(c *Comm) {
			c.SetErrHandler(func(*Comm, error) {})
			r := c.Rank()
			if len(calls[r]) == 0 {
				c.Proc().Sleep(time.Hour) // never enters: the victim
			}
			for _, cl := range calls[r] {
				c.Proc().Sleep(cl.at - c.Proc().Now())
				if cl.revoke {
					_ = c.Revoke()
				}
				var o outcome
				var err error
				switch op {
				case "alltoallv":
					_, err = c.Alltoallv(make([][]byte, 4))
				case "barrier":
					err = c.Barrier()
				case "allgather":
					_, err = c.Allgather([]byte{byte(r)})
				case "shrink":
					var nc *Comm
					if nc, err = c.Shrink(); err == nil {
						o.val = nc.Size()
					}
				case "agree":
					o.val, err = c.Agree(cl.flag)
				}
				switch {
				case IsProcFailed(err):
					o.err = "failed"
				case errors.Is(err, ErrRevoked):
					o.err = "revoked"
				case err != nil:
					t.Errorf("rank %d: %v", r, err)
				}
				o.at = c.Proc().Now()
				got[r] = append(got[r], o)
			}
		})
		if victim >= 0 {
			clus.Sim.After(s, func() { w.Kill(victim) })
		}
		clus.Sim.Run()
		if st := clus.Sim.Stranded(); len(st) != 0 {
			t.Errorf("stranded procs: %v", st)
		}
		return got
	}

	at0 := []call{{at: 0}}
	type row struct {
		name   string
		calls  [4][]call
		victim int
		want   [4][]outcome
	}
	// Alltoallv and the tree collectives: a death or a Revoke interrupts the
	// ranks inside, and the entry check turns a late entrant away: no fresh
	// meeting can gather.
	var rows []row
	for _, op := range []string{"alltoallv", "barrier", "allgather"} {
		rows = append(rows,
			row{op + "/dies-before-entering",
				[4][]call{at0, at0, at0, nil}, 3,
				[4][]outcome{{failed(s)}, {failed(s)}, {failed(s)}, nil}},
			row{op + "/dies-inside-then-a-late-entrant",
				[4][]call{at0, at0, at0, {{at: 2 * s}}}, 0,
				[4][]outcome{nil, {failed(s)}, {failed(s)}, {failed(2 * s)}}},
			row{op + "/revoked-while-parked",
				[4][]call{{{at: s, revoke: true}}, at0, at0, at0}, -1,
				[4][]outcome{{revoked(s + lat)}, {revoked(s + lat)}, {revoked(s + lat)}, {revoked(s + lat)}}})
	}
	for _, tc := range append(rows, []row{
		// Shrink: a death aborts the gathering meeting, inside or outside it,
		// and whoever enters next opens a fresh one over the new membership;
		// Revoke does not reach it.
		{"shrink/dies-before-entering-then-retried",
			[4][]call{{{at: 0}, {at: 2 * s}}, {{at: 0}, {at: 2 * s}}, {{at: 0}, {at: 3 * s}}, nil}, 3,
			[4][]outcome{
				{failed(s), {"", 3, released(3 * s)}},
				{failed(s), {"", 3, released(3 * s)}},
				{failed(s), {"", 3, released(3 * s)}}, nil}},
		{"shrink/dies-inside-then-a-late-entrant",
			[4][]call{at0, {{at: 0}, {at: 2 * s}}, {{at: 0}, {at: 3 * s}}, {{at: 2 * s}}}, 0,
			[4][]outcome{nil,
				{failed(s), {"", 3, released(3 * s)}},
				{failed(s), {"", 3, released(3 * s)}},
				{{"", 3, released(3 * s)}}}},
		{"shrink/revoked-while-parked",
			[4][]call{{{at: s, revoke: true}}, at0, at0, at0}, -1,
			[4][]outcome{{{"", 4, released(s + lat)}}, {{"", 4, released(s + lat)}}, {{"", 4, released(s + lat)}}, {{"", 4, released(s + lat)}}}},

		// Agree never fails: a death lets it finish over whoever is left (an
		// entrant that died inside had its say: 5&3&7&3, not 3&7&3, and is
		// never woken), Revoke does not reach it, and the round after a
		// finished one is a fresh meeting that inherits no flag.
		{"agree/dies-before-entering-then-a-second-round",
			[4][]call{{{at: 0, flag: 1}, {at: 2 * s, flag: 6}}, {{at: 0, flag: 3}, {at: 2 * s, flag: 6}}, {{at: 0, flag: 1}, {at: 3 * s, flag: 7}}, nil}, 3,
			[4][]outcome{
				{{"", 1, released(s)}, {"", 6, released(3 * s)}},
				{{"", 1, released(s)}, {"", 6, released(3 * s)}},
				{{"", 1, released(s)}, {"", 6, released(3 * s)}}, nil}},
		{"agree/dies-inside-then-the-last-survivor",
			[4][]call{{{at: 0, flag: 5}}, {{at: 0, flag: 3}}, {{at: 0, flag: 7}}, {{at: 2 * s, flag: 3}}}, 0,
			[4][]outcome{nil, {{"", 1, released(2 * s)}}, {{"", 1, released(2 * s)}}, {{"", 1, released(2 * s)}}}},
		{"agree/revoked-while-parked",
			[4][]call{{{at: s, flag: 6, revoke: true}}, {{at: 0, flag: 3}}, {{at: 0, flag: 7}}, {{at: 0, flag: 3}}}, -1,
			[4][]outcome{{{"", 2, released(s + lat)}}, {{"", 2, released(s + lat)}}, {{"", 2, released(s + lat)}}, {{"", 2, released(s + lat)}}}},
	}...) {
		t.Run(tc.name, func(t *testing.T) {
			op, _, _ := strings.Cut(tc.name, "/")
			got := run(op, tc.calls, tc.victim)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("outcomes by rank:\n got %v\nwant %v", got, tc.want)
			}
			if again := run(op, tc.calls, tc.victim); !reflect.DeepEqual(again, got) {
				t.Errorf("second run of the same input:\n got %v\nthen %v", got, again)
			}
		})
	}
}
