package core

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Reference models of the recovery rebuild: the task table as one bool per
// task with its bit-by-bit bitmap codec, and balanceWork's bisection run for
// all of its hundred iterations with every finish() recomputed. The packed
// table and the early-exit bisection must agree with them exactly.

type refTable []bool

func (done refTable) bitmap() []byte {
	out := make([]byte, (len(done)+7)/8)
	for i, d := range done {
		if d {
			out[i/8] |= 1 << uint(i%8)
		}
	}
	return out
}

func (done refTable) merge(bm []byte) {
	for i := range done {
		if i/8 < len(bm) && bm[i/8]&(1<<uint(i%8)) != 0 {
			done[i] = true
		}
	}
}

func refBalanceWork(models []lbModel, pieces []float64) [][]int {
	out := make([][]int, len(models))
	if len(models) == 0 || len(pieces) == 0 {
		return out
	}
	total := 0.0
	for _, p := range pieces {
		total += p
	}
	lo, hi := math.Inf(1), 0.0
	for _, m := range models {
		f := m.finish()
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
	}
	minSlope := math.Inf(1)
	for _, m := range models {
		if m.Slope < minSlope {
			minSlope = m.Slope
		}
	}
	hi += minSlope*total + 1
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		cap := 0.0
		for _, m := range models {
			f := m.finish()
			if mid > f {
				cap += (mid - f) / m.Slope
			}
		}
		if cap < total {
			lo = mid
		} else {
			hi = mid
		}
	}
	level := hi
	capacity := make([]float64, len(models))
	for j, m := range models {
		f := m.finish()
		if level > f {
			capacity[j] = (level - f) / m.Slope
		}
	}
	order := make([]int, len(pieces))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool { return pieces[order[x]] > pieces[order[y]] })
	remaining := append([]float64(nil), capacity...)
	for _, pi := range order {
		best := 0
		for j := 1; j < len(models); j++ {
			if remaining[j] > remaining[best] {
				best = j
			}
		}
		out[best] = append(out[best], pi)
		remaining[best] -= pieces[pi]
	}
	for j := range out {
		sort.Ints(out[j])
	}
	return out
}

// The packed table against the bool table, over random tables of every
// length around the byte and word boundaries and a stream of gossip both
// honest and hostile: empty, short, over-long, all ones (stray bits past the
// task count), all zero (must clear nothing) and random.
func TestPackedTaskTableMatchesBoolTable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 200; n++ {
		tt := hashTable(make([]Task, n), 4)
		ref := make(refTable, n)
		agree := func(when string) {
			t.Helper()
			for id := range ref {
				if tt.isDone(id) != ref[id] {
					t.Fatalf("n=%d, %s: task %d done=%v, reference %v", n, when, id, tt.isDone(id), ref[id])
				}
			}
			if got, want := tt.doneBitmap(), ref.bitmap(); !bytes.Equal(got, want) {
				t.Fatalf("n=%d, %s: bitmap %x, reference %x", n, when, got, want)
			}
		}
		for round := 0; round < 12; round++ {
			for k := 0; k < n/4; k++ {
				id := rng.Intn(n)
				d := rng.Intn(5) != 0
				tt.setDone(id, d)
				ref[id] = d
			}
			agree("after setDone")
			gossip := make([]byte, []int{0, n / 16, (n + 7) / 8, (n+7)/8 + 1 + rng.Intn(20)}[rng.Intn(4)])
			switch rng.Intn(4) {
			case 0: // all zero
			case 1:
				for i := range gossip {
					gossip[i] = 0xff
				}
			default:
				rng.Read(gossip)
			}
			sent := append([]byte(nil), gossip...)
			tt.mergeBitmap(gossip)
			ref.merge(gossip)
			agree("after mergeBitmap")
			if !bytes.Equal(gossip, sent) {
				t.Fatalf("n=%d: mergeBitmap wrote to the gossip it was given", n)
			}
		}
		// The bitmap handed out is a copy: later progress must not reach it.
		if n > 0 {
			bm := tt.doneBitmap()
			held := append([]byte(nil), bm...)
			tt.setDone(0, !tt.isDone(0))
			if !bytes.Equal(bm, held) {
				t.Fatalf("n=%d: doneBitmap aliases the table", n)
			}
		}
	}
}

// balanceWork against the hundred-iteration reference over 200 seeded inputs:
// static and trace models (debts), backlogs, equal finishes, one survivor,
// zero-sized and equal pieces, wide ranges of slope. Assignments must be
// identical, not merely as good.
func TestBalanceWorkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for seed := 0; seed < 200; seed++ {
		models := make([]lbModel, 1+rng.Intn(40))
		for j := range models {
			m := lbModel{Rank: j, Slope: math.Pow(10, -9+4*rng.Float64())}
			switch seed % 4 {
			case 0: // static, idle survivors: every finish equal (zero)
			case 1:
				m.Intercept = rng.Float64() * 1e-3
				m.Backlog = float64(rng.Intn(1 << 22))
			case 2: // LBTrace: debts
				m.Intercept = rng.Float64() * 1e-3
				m.Backlog = float64(rng.Intn(1 << 22))
				m.Debt = rng.Float64() * 0.05
			case 3: // identical survivors
				m.Slope, m.Intercept, m.Backlog = 2e-8, 1e-4, 4096
			}
			models[j] = m
		}
		pieces := make([]float64, rng.Intn(300))
		for i := range pieces {
			switch rng.Intn(4) {
			case 0:
				pieces[i] = 0
			case 1:
				pieces[i] = 1
			default:
				pieces[i] = float64(rng.Intn(1 << 20))
			}
		}
		got, want := balanceWork(models, pieces), refBalanceWork(models, pieces)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d models, %d pieces): assignment\n%v\nreference\n%v", seed, len(models), len(pieces), got, want)
		}
	}
	// Degenerate inputs take the same path in both.
	for _, models := range [][]lbModel{nil, {{Slope: 1e-9}}, {{Slope: math.NaN()}, {Slope: 1e-9}}, {{Slope: 1e-9, Debt: math.Inf(1)}, {Slope: 1e-9}}} {
		for _, pieces := range [][]float64{nil, {0}, {0, 0, 0}, {5, 5, 5, 5}} {
			if got, want := balanceWork(models, pieces), refBalanceWork(models, pieces); !reflect.DeepEqual(got, want) {
				t.Fatalf("models %+v pieces %v: assignment %v, reference %v", models, pieces, got, want)
			}
		}
	}
}

// BenchmarkMergeBitmap is one survivor's share of a recovery at the scale of
// wc-observed: 255 gossiped bitmaps of 512 tasks merged into one table.
func BenchmarkMergeBitmap(b *testing.B) {
	const tasks, survivors = 512, 255
	rng := rand.New(rand.NewSource(1))
	gossip := make([][]byte, survivors)
	for i := range gossip {
		gossip[i] = make([]byte, tasks/8)
		rng.Read(gossip[i])
	}
	tt := hashTable(make([]Task, tasks), survivors)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bm := range gossip {
			tt.mergeBitmap(bm)
		}
	}
}
