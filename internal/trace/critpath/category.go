package critpath

// Category is the attribution bucket of one critical-path interval. The
// fixed declaration order below is the canonical rendering and comparison
// order — reports, gauges and -against diffs all iterate it, never a map.
type Category uint8

const (
	// CatStartup is time before a rank's chain has any recorded cause
	// (job launch, pre-first-event setup).
	CatStartup Category = iota
	// CatCompute is task compute: map/convert/reduce work, phase
	// transitions and task/output commits.
	CatCompute
	// CatShuffleWait is point-to-point and collective communication outside
	// recovery: aggregate/shuffle traffic, barrier skew and a masking job's
	// closing shrink.
	CatShuffleWait
	// CatCkptWrite is main-thread blocking on synchronous checkpoint
	// appends.
	CatCkptWrite
	// CatCkptDrain is main-thread blocking at the phase-boundary
	// consistency point, waiting for pending frames to drain.
	CatCkptDrain
	// CatCopierStall is background-copier activity the main thread ended up
	// waiting on (it surfaces on the path only via a drain stall's fan-in).
	CatCopierStall
	// CatRecoveryInit is the Fig 3 "init" bucket plus recovery-internal
	// communication: shrink, agreement, state exchange, replanning.
	CatRecoveryInit
	// CatRecoveryLoad is the Fig 3 "load checkpoint" bucket: staging reads,
	// frame replay, restore decode.
	CatRecoveryLoad
	// CatRecoverySkip is the Fig 3 "skip" bucket: fast-forwarding records
	// already covered by a checkpoint.
	CatRecoverySkip
	// CatRecoveryReprocess is the Fig 3 "reprocess" bucket: recomputing
	// work lost past the checkpoint horizon.
	CatRecoveryReprocess
	// CatLBRefit is load-balancer model fitting and redistribution
	// decisions.
	CatLBRefit
	// CatFailureStall is time blocked by a failure before recovery engages:
	// dead-peer waits, revokes observed outside recovery, straggler onset.
	CatFailureStall
	// CatShadowSync is replication-model pair traffic: reduce-progress sync
	// pushes/drains and failover promotion (the replicate/partial -ft-model
	// overhead bucket).
	CatShadowSync
	// CatOther is anything no rule claims (should stay ~0; a growing value
	// means the edge rules lag the event vocabulary).
	CatOther

	numCategories // sentinel: count of categories above
)

// categoryNames are the stable wire/report names, indexed by Category.
var categoryNames = [numCategories]string{
	"startup",
	"compute",
	"shuffle-wait",
	"ckpt-write",
	"ckpt-drain",
	"copier-stall",
	"recovery-init",
	"recovery-load",
	"recovery-skip",
	"recovery-reprocess",
	"lb-refit",
	"failure-stall",
	"shadow-sync",
	"other",
}

// String returns the category's stable report name (e.g. "recovery-load").
func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "unknown"
}

// Categories returns every category in canonical order.
func Categories() []Category {
	out := make([]Category, numCategories)
	for i := range out {
		out[i] = Category(i)
	}
	return out
}
