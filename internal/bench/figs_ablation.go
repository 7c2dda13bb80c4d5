package bench

import (
	"fmt"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/failure"
	"ftmrmpi/internal/metrics"
	"ftmrmpi/internal/scenario"
	"ftmrmpi/internal/sched"
	"ftmrmpi/internal/trace"
	"ftmrmpi/internal/workloads"
)

// ablLB — ablation of the §3.4 regression-based load balancer: completion
// time of a detect/resume(WC) run with one mid-map failure, with the
// balancer redistributing the failed rank's work proportionally versus a
// naive even split. The gap comes from the Zipf-skewed workload: without
// the model, a busy process can be handed as much recovered work as an
// idle one.
func ablLB(s Scale) *Table {
	t := &Table{
		ID:      "abl-lb",
		Title:   "Ablation: regression-based load balancing of recovered work (DR-WC, one map failure)",
		Columns: []string{"procs", "balanced(s)", "even-split(s)", "lb-saving"},
	}
	p := s.wcParams()
	for _, procs := range s.procSweep(64) {
		if procs > 256 {
			break
		}
		run := func(name string, balance bool) time.Duration {
			spec := evalSpec(core.ModelDetectResumeWC)
			spec.LoadBalance = balance
			sc := wcScenario(fmt.Sprintf("abl-lb-%s-%d", name, procs), procs, p, spec)
			sc.Kills = []scenario.Kill{{Rank: procs / 2, Phase: core.PhaseMap, Delay: 20 * time.Millisecond}}
			return scenario.Run(sc).Result().Elapsed()
		}
		on, off := run("on", true), run("off", false)
		t.AddRow(fmt.Sprint(procs), secs(on), secs(off), pct(on, off))
	}
	t.Notes = append(t.Notes,
		"design choice §3.4: predicted-completion-time waterfilling vs round-robin redistribution")
	return t
}

// ablQueue — the §2.3/§4.1 scheduling argument, priced: a failed
// checkpoint/restart job must be resubmitted and waits in a busy gang
// scheduler's FIFO queue before it can recover, while detect/resume masks
// the failure in place. Total time-to-solution with one reduce-phase
// failure under increasing queue pressure.
func ablQueue(s Scale) *Table {
	t := &Table{
		ID:      "abl-queue",
		Title:   "Gang-scheduler queue pressure: CR resubmission vs DR in-place recovery (256 procs)",
		Columns: []string{"bg-jobs", "queue-wait(s)", "cr-total(s)", "dr-wc-total(s)", "dr-advantage"},
	}
	procs := min(256, s.MaxProcs)

	// One failed CR run + its restart, and one DR-WC run, measured once;
	// the queue wait scales with cluster business.
	crFailDur, crRetryDur, _, _ := totalWithFailure("abl-queue-cr", procs, s, core.ModelCheckpointRestart)
	_, _, wcTotal, _ := totalWithFailure("abl-queue-wc", procs, s, core.ModelDetectResumeWC)

	for _, bg := range []int{0, 16, 64, 256} {
		// A 2048-slot machine with bg queued/running background jobs whose
		// mean duration is ~2x our job.
		sc := sched.BusyCluster(2048, bg, 2*crFailDur+time.Second, uint64(bg)+1)
		// Resubmit while the backlog is live: the restart queues behind the
		// pending background jobs.
		j, err := sc.Submit("restart", procs, crRetryDur, sc.Now())
		var wait time.Duration
		if err == nil {
			wait = j.Wait()
		}
		crTotal := crFailDur + wait + crRetryDur
		t.AddRow(fmt.Sprint(bg), secs(wait), secs(crTotal), secs(wcTotal),
			ratio(crTotal, wcTotal))
	}
	t.Notes = append(t.Notes,
		"paper §4.1: 'The resubmitted job may have to wait for hours in the queue on a busy HPC cluster' — detect/resume avoids the queue entirely")
	return t
}

// The straggler scenario's turbo rank runs at fastFactor of its cost until
// the throttle onset, then at slowFactor.
const (
	turbo                  = 1
	fastFactor, slowFactor = 0.3, 6.0
)

// ablLBTraceRun executes the straggler scenario once under the given
// balancer model: an NWC wordcount where rank turbo starts out fast,
// throttles hard at onset, and victims are killed at the scheduled times so
// the balancer must repeatedly re-place lost work. A tracer is attached so
// the run's busy-time skew can be reported next to its completion time.
func ablLBTraceRun(name string, procs int, p workloads.WordcountParams, kind core.LBModelKind,
	onset, firstKill time.Duration) (elapsed time.Duration, imbalance float64) {
	spec := evalSpec(core.ModelDetectResumeNWC)
	spec.LBModel = kind
	sc := wcScenario(name, procs, p, spec)
	sc.Observe = func(clus *cluster.Cluster) { clus.Trace = trace.New(clus.Sim, 1<<15) }
	sc.Inject = func(h *core.Handle, _ int) {
		failure.SlowRank(h.World, turbo, fastFactor, 0)
		failure.SlowRank(h.World, turbo, slowFactor, onset)
		// First kill lands late in map, when survivors' drained backlogs leave
		// the slope estimates in charge — the turbo rank adopts some of the lost
		// work and grinds it at the throttled rate, handing the trace model its
		// first slow observations. The later kills fire at reduce entries, which
		// the shuffle barrier guarantees happen after those slow commits.
		failure.KillAt(h.World, procs/2, firstKill)
		reduceEntries := 0
		now := h.Clus.Sim.Now
		h.OnPhase(func(wr int, ph core.Phase) {
			if wr != 0 || ph != core.PhaseReduce {
				return
			}
			reduceEntries++
			switch reduceEntries {
			case 1:
				failure.KillAt(h.World, procs/2+1, now()+100*time.Microsecond)
				failure.KillAt(h.World, procs/2+2, now()+150*time.Microsecond)
			case 2:
				failure.KillAt(h.World, procs/2+3, now()+100*time.Microsecond)
			}
		})
	}
	o := scenario.Run(sc)
	return o.Result().Elapsed(), trace.Summarize(o.Clus.Trace.Events()).Skew().Imbalance
}

// ablLBTrace — ablation of the trace-driven balancer (this repo's extension
// of §3.4, not in the paper): one rank is a turbo node that throttles to a
// multiple of its original cost mid-job. The static whole-history fit keeps
// trusting its fast past and hands it redistributed work after every failure;
// the recency-weighted trace fit reprices it from its first slow completion
// and routes lost work to genuinely fast survivors.
func ablLBTrace(s Scale) *Table {
	t := &Table{
		ID:      "abl-lb-trace",
		Title:   "Ablation: static vs trace-driven balancing with a throttled turbo rank (DR-NWC, repeated map failures)",
		Columns: []string{"lb-model", "completion(s)", "busy-imbalance", "vs-static"},
	}
	procs := min(64, s.MaxProcs)
	p := workloads.DefaultWordcount()
	p.Chunks = 16 * procs
	p.Lines = 64

	// Calibrate the failure-free map duration so the throttle onset (once
	// the turbo rank has drained its own backlog) and the first kill (late
	// in map, when survivors' drained backlogs leave the slope estimates in
	// charge) can be placed relative to it.
	mapDur := runWordcount("abl-lbt-cal", procs, p, evalSpec(core.ModelDetectResumeNWC)).MaxPhase(core.PhaseMap)
	onset := mapDur * 45 / 100
	firstKill := mapDur * 95 / 100

	st, stSkew := ablLBTraceRun("abl-lbt-static", procs, p, core.LBStatic, onset, firstKill)
	tr, trSkew := ablLBTraceRun("abl-lbt-trace", procs, p, core.LBTrace, onset, firstKill)
	t.AddRow("static", secs(st), fmt.Sprintf("%.2f", stSkew), "-")
	t.AddRow("trace", secs(tr), fmt.Sprintf("%.2f", trSkew), pct(tr, st))
	t.Notes = append(t.Notes,
		"turbo rank runs at 0.3x cost until 45% of map, then throttles to 6x; four victims killed across three recovery rounds",
		"static §3.4 OLS averages the throttle away and keeps assigning the turbo rank lost work; the recency-weighted trace fit reprices it from its first slow commit")
	return t
}

// ablRestoreRun executes one DR-WC wordcount with a metrics registry
// attached (the per-source recovery read counters live there) and `kills`
// ranks killed at staggered delays after they enter the reduce phase — the
// post-shuffle window where recovery means restoring whole lost partitions,
// so the restore source dominates recovery time. Returns the job's result
// and the run's final snapshot.
func ablRestoreRun(name string, procs int, p workloads.WordcountParams,
	replicaK, kills, ckptInterval int) (*core.Result, metrics.Snapshot) {
	spec := evalSpec(core.ModelDetectResumeWC)
	spec.ReplicaK = replicaK
	spec.CkptInterval = ckptInterval
	sc := wcScenario(name, procs, p, spec)
	sc.Observe = observeMetrics
	// Stagger the kills well into reduce so each victim's shuffle snapshot
	// and early reduce commits are already durable: recovery then takes the
	// work-conserving path, where the new owner restores the whole lost
	// partition inside the recovery window (rather than remapping to map).
	for i := 0; i < kills; i++ {
		sc.Kills = append(sc.Kills, scenario.Kill{Rank: procs/2 + i, Phase: core.PhaseReduce, Delay: time.Duration(i+1) * 5 * time.Millisecond})
	}
	o := scenario.Run(sc)
	return o.Result(), o.Clus.Metrics.Snapshot()
}

// observeMetrics attaches a metrics registry to a scenario's cluster.
func observeMetrics(clus *cluster.Cluster) { clus.Metrics = metrics.New(clus.Sim) }

// ablRestore — ablation of the diskless in-memory replica tier (ReStore-
// style, this repo's extension of §4): the same DR-WC run under repeated
// kills, recovering either from the PFS alone or with checkpoint frames
// replicated into the RAM of k=2 ring-successor peers. Replica reads skip
// the shared file system entirely (the network cost was paid at push time),
// which shows up as a shorter worst-rank recovery. The replica run is gated
// through metrics.Evaluate's recovery_read_pfs_share bound: at most half of
// its recovery reads may fall through to the PFS.
func ablRestore(s Scale) *Table {
	t := &Table{
		ID:      "abl-restore",
		Title:   "Ablation: peer-replica restore vs PFS-only recovery (DR-WC, repeated kills)",
		Columns: []string{"restore", "completion(s)", "recovery-worst(s)", "replica-reads", "pfs-reads", "vs-pfs-only"},
	}
	// Few ranks with large partitions and a dense checkpoint cadence: each
	// lost partition's stream then holds many frames, so a PFS restore pays
	// the op latency + IOPS cost the replica tier avoids (peer-RAM reads are
	// free at read time; their network cost was paid at push time).
	procs := min(16, s.MaxProcs)
	p := s.wcParams()
	const kills = 3
	const ckptInterval = 10

	reads := func(snap metrics.Snapshot) (replica, pfs float64) {
		local, _ := snap.Series(metrics.MRecoveryReads, metrics.SourceReplicaLocal)
		peer, _ := snap.Series(metrics.MRecoveryReads, metrics.SourceReplicaPeer)
		p, _ := snap.Series(metrics.MRecoveryReads, metrics.SourcePFS)
		return local + peer, p
	}

	// Worst-rank recovery time in the paper's Figure-3 sense: the recovery
	// coordination window plus the checkpoint load/skip/reprocess work that
	// detect/resume spreads across the resumed phases. MaxPhase(PhaseRecovery)
	// alone would only see the coordination window and miss the restore cost
	// this ablation varies.
	worstRecovery := func(res *core.Result) time.Duration {
		var w time.Duration
		for _, m := range res.Ranks {
			if m != nil && m.Recovery.Total() > w {
				w = m.Recovery.Total()
			}
		}
		return w
	}

	pfsOnly, pfsSnap := ablRestoreRun("abl-restore-pfs", procs, p, 0, kills, ckptInterval)
	rep, repSnap := ablRestoreRun("abl-restore-rep", procs, p, 2, kills, ckptInterval)
	pr, pp := reads(pfsSnap)
	rr, rp := reads(repSnap)
	pfsWorst := worstRecovery(pfsOnly)
	repWorst := worstRecovery(rep)
	t.AddRow("pfs-only", secs(pfsOnly.Elapsed()), secs(pfsWorst),
		fmt.Sprintf("%.0f", pr), fmt.Sprintf("%.0f", pp), "-")
	t.AddRow("replica-k2", secs(rep.Elapsed()), secs(repWorst),
		fmt.Sprintf("%.0f", rr), fmt.Sprintf("%.0f", rp), pct(repWorst, pfsWorst))

	// Enforce the new SLO bound on the replica run: every other indicator
	// stays report-only so this gate measures exactly the restore path.
	slo := metrics.SLO{
		MaxCkptOverhead: -1, MaxRecoverySeconds: -1, MaxShuffleSkew: -1,
		MaxCopierShare: -1, MaxQuarantines: -1, MaxMissingRanks: -1,
		MaxRecoveryPathShare: -1, MaxRecoveryPFSShare: 0.5,
	}
	verdict := "pass"
	if metrics.Evaluate(repSnap, slo).Breached() {
		verdict = "FAIL"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("slo gate recovery_read_pfs_share <= 0.5 on the replica run: %s", verdict),
		"replica reads serve recovery from peer RAM; the PFS remains the durable fallback (and the only source after whole-cluster loss)")
	return t
}

// ablFTModelCR runs the checkpoint/restart arm of the ft-model crossover:
// every failure aborts the job, which is immediately resubmitted with
// Resume on the same cluster (zero queue wait — abl-queue prices the
// queue), so the reported total is a *lower bound* on CR's time-to-
// solution. Attempt i < kills loses rank procs/2+i a staggered beat into
// its reduce phase; the final attempt runs clean. Returns the summed
// elapsed time across attempts and how many attempts there were.
func ablFTModelCR(name string, procs int, p workloads.WordcountParams, kills int) (time.Duration, int) {
	sc := wcScenario(name, procs, p, evalSpec(core.ModelCheckpointRestart))
	sc.Retries = kills
	sc.Inject = func(h *core.Handle, attempt int) {
		if attempt < kills {
			failure.KillOnPhase(h, procs/2+attempt, core.PhaseReduce, time.Duration(attempt+1)*time.Millisecond)
		}
	}
	o := scenario.Run(sc)
	return o.Total(), len(o.Attempts)
}

// ablFTModelRep runs the replication arm: one DR-NWC job over the same
// procs ranks under -ft-model=replicate, so half the ranks serve as
// shadows and the failure-free makespan pays the halved capacity up
// front. Kills target distinct primary slots at staggered beats into
// reduce; each slot fails over to its live shadow in place with no replay
// and no PFS read, so the marginal cost per failure is near zero.
func ablFTModelRep(name string, procs int, p workloads.WordcountParams, kills int) (*core.Result, metrics.Snapshot) {
	spec := evalSpec(core.ModelDetectResumeNWC)
	spec.FTModel = core.FTModelReplicate
	sc := wcScenario(name, procs, p, spec)
	sc.Observe = observeMetrics
	prims := sched.PairPrimaries(procs, 1)
	for i := 0; i < kills && i < prims; i++ {
		sc.Kills = append(sc.Kills, scenario.Kill{Rank: prims/2 + i, Phase: core.PhaseReduce, Delay: time.Duration(i+1) * time.Millisecond})
	}
	o := scenario.Run(sc)
	return o.Result(), o.Clus.Metrics.Snapshot()
}

// ablFTModel — the -ft-model cost crossover (PartRePer/rMPI-style
// replication vs the paper's checkpointing): total time-to-solution of the
// same wordcount on the same rank budget as the per-job failure count
// grows. Replication pays a fixed capacity tax (half the ranks mirror
// instead of working) but masks each failure with an in-place shadow
// promotion; checkpoint/restart starts at full speed but pays an abort +
// resubmit + replay for every failure. The crossover is the failure rate
// above which the fixed tax is the cheaper insurance.
func ablFTModel(s Scale) *Table {
	t := &Table{
		ID:    "abl-ftmodel",
		Title: "Execution-model crossover: -ft-model=replicate vs cr, same rank budget (64 procs)",
		Columns: []string{"kills", "cr-attempts", "cr-total(s)", "replicate(s)",
			"rep-vs-cr", "winner"},
	}
	procs := min(64, s.MaxProcs)
	p := s.wcParams()

	var failovers, mirrorMB float64
	for _, kills := range []int{0, 1, 2, 4} {
		crTotal, crAttempts := ablFTModelCR(fmt.Sprintf("abl-ftm-cr-%d", kills), procs, p, kills)
		rep, snap := ablFTModelRep(fmt.Sprintf("abl-ftm-rep-%d", kills), procs, p, kills)
		repTotal := rep.Elapsed()
		winner := "cr"
		if repTotal < crTotal {
			winner = "replicate"
		}
		t.AddRow(fmt.Sprint(kills), fmt.Sprint(crAttempts), secs(crTotal), secs(repTotal),
			ratio(repTotal, crTotal), winner)
		failovers = snap.Total("ftmr_ftmodel_failovers")
		mirrorMB = snap.Total("ftmr_ftmodel_mirror_bytes") / (1 << 20)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("replicate runs %d primaries + %d shadows on the cr arm's %d ranks; its capacity tax is paid once, while each cr failure costs an abort + zero-wait resubmit + checkpoint replay",
			sched.PairPrimaries(procs, 1), procs-sched.PairPrimaries(procs, 1), procs),
		fmt.Sprintf("replicate arm at 4 kills: %.0f shadow promotions, %.1f MiB mirrored shuffle traffic, zero records restored or skipped",
			failovers, mirrorMB),
		"cr resubmission is modeled with zero queue wait (abl-queue prices the queue); any real backlog moves the crossover further toward replicate")
	return t
}

// ablCombiner — the MR-MPI "compress" operation: local pre-reduction of the
// intermediate pairs before the shuffle, shrinking both shuffle traffic and
// checkpoint volume.
func ablCombiner(s Scale) *Table {
	t := &Table{
		ID:      "abl-combiner",
		Title:   "Ablation: local pre-reduction (MR-MPI compress) before the shuffle",
		Columns: []string{"procs", "plain(s)", "combined(s)", "shuffle-bytes-plain", "shuffle-bytes-combined"},
	}
	p := s.wcParams()
	for _, procs := range s.procSweep(64) {
		if procs > 256 {
			break
		}
		plain := runWordcount(fmt.Sprintf("abl-comb-plain-%d", procs), procs, p, evalSpec(core.ModelDetectResumeWC))
		comb := runWordcount(fmt.Sprintf("abl-comb-on-%d", procs), procs, p,
			workloads.WithCombiner(evalSpec(core.ModelDetectResumeWC), p))
		bytesOf := func(r *core.Result) int64 {
			var b int64
			for _, m := range r.Ranks {
				if m != nil {
					b += m.ShuffleBytes
				}
			}
			return b
		}
		t.AddRow(fmt.Sprint(procs), secs(plain.Elapsed()), secs(comb.Elapsed()),
			fmt.Sprint(bytesOf(plain)), fmt.Sprint(bytesOf(comb)))
	}
	t.Notes = append(t.Notes,
		"the combiner folds each rank's duplicate keys before transmission; outputs are verified byte-identical in tests")
	return t
}
