package trace

import (
	"slices"
	"time"
)

// Skew extraction: the per-rank phase-cost view of a Summary that the §3.4
// load balancer consumes. Summarize says how much time each rank spent per
// phase; Skew folds that into the compute-bearing costs (map, convert,
// reduce) plus the overheads that ride along (collectives, copier,
// recovery), and the cross-rank imbalance figure the straggler ablation
// reports.

// Phase name constants as the runner emits them (core.phaseNames). The
// trace package cannot import core, so the contract is these strings.
const (
	PhaseNameInit    = "init"
	PhaseNameMap     = "map"
	PhaseNameShuffle = "shuffle"
	PhaseNameConvert = "merge"
	PhaseNameReduce  = "reduce"
)

// RankSkew is one rank's phase-cost decomposition. All durations are
// virtual simulation time.
type RankSkew struct {
	Rank int // world rank

	// Phase durations (matched begin/end pairs, as in RankSummary.Phase).
	Map, Shuffle, Convert, Reduce time.Duration

	// Busy is the compute-bearing total: Map + Convert + Reduce. Shuffle is
	// excluded — it is dominated by all-to-all wait, which tracks the
	// slowest peer, not this rank's own throughput.
	Busy time.Duration

	// Overheads that explain *why* a rank is slow.
	Coll     time.Duration // top-level collective (wait) time
	Copier   time.Duration // copier thread spans (checkpoint drain CPU+IO)
	Recovery time.Duration // recovery episode spans
}

// SkewReport is the cross-rank view.
type SkewReport struct {
	Ranks []RankSkew // ascending by rank; the world track is excluded

	MeanBusy, MaxBusy time.Duration // mean / max Busy across ranks (virtual)
	SlowestRank       int           // rank with MaxBusy (-1 when empty)

	// Imbalance is MaxBusy/MeanBusy: 1.0 is perfectly balanced, 2.0 means
	// the slowest rank carried twice the mean compute time. Zero when no
	// rank recorded busy time.
	Imbalance float64
}

// Skew derives the per-rank phase-cost report from a summary.
func (s *Summary) Skew() *SkewReport {
	rep := &SkewReport{SlowestRank: -1}
	var ranks []int
	for r := range s.Ranks {
		if r == GlobalRank {
			continue
		}
		ranks = append(ranks, r)
	}
	slices.Sort(ranks)

	var totalBusy time.Duration
	for _, r := range ranks {
		rs := s.Ranks[r]
		sk := RankSkew{
			Rank:     r,
			Map:      rs.Phase[PhaseNameMap],
			Shuffle:  rs.Phase[PhaseNameShuffle],
			Convert:  rs.Phase[PhaseNameConvert],
			Reduce:   rs.Phase[PhaseNameReduce],
			Coll:     rs.CollTime,
			Copier:   rs.CopierTime,
			Recovery: rs.RecoveryTime,
		}
		sk.Busy = sk.Map + sk.Convert + sk.Reduce
		rep.Ranks = append(rep.Ranks, sk)
		totalBusy += sk.Busy
		if sk.Busy > rep.MaxBusy {
			rep.MaxBusy = sk.Busy
			rep.SlowestRank = sk.Rank
		}
	}
	if n := len(rep.Ranks); n > 0 {
		rep.MeanBusy = totalBusy / time.Duration(n)
	}
	if rep.MeanBusy > 0 {
		rep.Imbalance = float64(rep.MaxBusy) / float64(rep.MeanBusy)
	}
	return rep
}

// RankSkew returns one rank's skew entry (zero value if absent).
func (r *SkewReport) RankSkew(rank int) RankSkew {
	for _, sk := range r.Ranks {
		if sk.Rank == rank {
			return sk
		}
	}
	return RankSkew{Rank: rank}
}
