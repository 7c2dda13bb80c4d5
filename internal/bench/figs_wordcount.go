package bench

import (
	"fmt"
	"time"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
	"ftmrmpi/internal/scenario"
)

// fig04 — job completion time of wordcount by checkpoint location (§4.1.3
// Figure 4): writing every checkpoint straight to the shared PFS vs writing
// locally and draining with the background copier.
func fig04(s Scale) *Table {
	t := &Table{
		ID:      "fig4",
		Title:   "Wordcount completion time vs checkpoint location (256 procs, CR model)",
		Columns: []string{"location", "completion(s)", "vs-local"},
	}
	procs := min(256, s.MaxProcs)
	p := s.wcParams()
	var local, direct time.Duration
	for _, loc := range []core.Location{core.LocLocalCopier, core.LocDirectPFS} {
		spec := evalSpec(core.ModelCheckpointRestart)
		spec.CkptLocation = loc
		spec.CkptInterval = 10 // stress small I/O like the paper's setup
		elapsed := runWordcount("fig4-"+loc.String(), procs, p, spec).Elapsed()
		if loc == core.LocLocalCopier {
			local = elapsed
		} else {
			direct = elapsed
		}
	}
	t.AddRow("local+copier", secs(local), "1.00")
	t.AddRow("gpfs-direct", secs(direct), ratio(direct, local))
	t.Notes = append(t.Notes, "paper: the background copier significantly reduces the checkpointing delay")
	return t
}

// fig05 — normalized failure-free completion time, strong scaling (§6.2
// Figure 5): MR-MPI vs the three FT-MRMPI configurations.
func fig05(s Scale) *Table {
	t := &Table{
		ID:    "fig5",
		Title: "Normalized wordcount completion time without failure (vs MR-MPI)",
		Columns: []string{"procs", "mr-mpi(s)", "mr-mpi", "ckpt/restart",
			"detect/resume(WC)", "detect/resume(NWC)"},
	}
	p := s.wcParams()
	for _, procs := range s.procSweep(32) {
		run := func(sys string, m core.Model) time.Duration {
			return runWordcount(fmt.Sprintf("fig5-%s-%d", sys, procs), procs, p, evalSpec(m)).Elapsed()
		}
		base := run("base", core.ModelNone)
		t.AddRow(fmt.Sprint(procs), secs(base), "1.00",
			ratio(run("cr", core.ModelCheckpointRestart), base),
			ratio(run("wc", core.ModelDetectResumeWC), base),
			ratio(run("nwc", core.ModelDetectResumeNWC), base))
	}
	t.Notes = append(t.Notes,
		"paper: CR and DR(WC) 10-13% slower (checkpointing), DR(NWC) ~= MR-MPI, scaling flattens beyond 256 procs (PFS bottleneck)")
	return t
}

// fig06 — percentage checkpoint overhead vs records per checkpoint (§6.2
// Figure 6).
func fig06(s Scale) *Table {
	t := &Table{
		ID:      "fig6",
		Title:   "Checkpointing overhead vs granularity (records/checkpoint, 256 procs)",
		Columns: []string{"records/ckpt", "completion(s)", "overhead"},
	}
	procs := min(256, s.MaxProcs)
	p := s.wcParams()
	p.Chunks = 1024
	p.Lines = 512 // more records per process so the sweep has room
	if s.Quick {
		p.Chunks = 256
		p.Lines = 128
	}
	base := runWordcount("fig6-base", procs, p, evalSpec(core.ModelNone)).Elapsed()
	intervals := []int{1, 10, 100, 1000, 10000, 100000}
	if s.Quick {
		intervals = []int{1, 10, 100, 1000}
	}
	for _, iv := range intervals {
		spec := evalSpec(core.ModelCheckpointRestart)
		spec.CkptInterval = iv
		elapsed := runWordcount(fmt.Sprintf("fig6-i%d", iv), procs, p, spec).Elapsed()
		t.AddRow(fmt.Sprint(iv), secs(elapsed), pct(elapsed, base))
	}
	t.Notes = append(t.Notes,
		"paper: overhead is huge at 1 record/ckpt, drops sharply by 100, negligible at 1e5 (records/proc scaled down ~100x here)")
	return t
}

// fig07 — copier-thread overhead decomposition (§6.2 Figure 7): CPU time of
// the main thread, CPU time of the copier, and I/O wait.
func fig07(s Scale) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "Completion time decomposition: copier overhead (256 procs)",
		Columns: []string{"system", "cpu-main(s)", "cpu-copier(s)", "io-wait(s)", "copier-cpu-share", "io-wait-vs-mrmpi"},
	}
	procs := min(256, s.MaxProcs)
	p := s.wcParams()
	base := runWordcount("fig7-base", procs, p, evalSpec(core.ModelNone))
	crSpec := evalSpec(core.ModelCheckpointRestart)
	crSpec.CkptInterval = 10
	cr := runWordcount("fig7-cr", procs, p, crSpec)
	row := func(name string, r *core.Result, baseIO time.Duration) {
		cpuM, cpuC, io := r.TotalCPUMain(), r.TotalCPUCopier(), r.TotalIOWait()
		share := "-"
		if total := cpuM + cpuC + io; total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*float64(cpuC)/float64(total))
		}
		vs := "-"
		if baseIO > 0 {
			vs = pct(io, baseIO)
		}
		t.AddRow(name, secs(cpuM), secs(cpuC), secs(io), share, vs)
	}
	row("mr-mpi", base, 0)
	row("ckpt/restart", cr, base.TotalIOWait())
	t.Notes = append(t.Notes, "paper: copier CPU ~3% of total; I/O wait ~11% higher than MR-MPI")
	return t
}

// reduceFailure is a wordcount job that loses rank procs/2 one millisecond
// into its reduce phase and is resubmitted once if it aborts.
func reduceFailure(name string, procs int, s Scale, spec core.Spec) scenario.Scenario {
	sc := wcScenario(name, procs, s.wcParams(), spec)
	sc.Kills = []scenario.Kill{{Rank: procs / 2, Phase: core.PhaseReduce, Delay: time.Millisecond}}
	sc.Retries = 1
	return sc
}

// totalWithFailure measures the paper's §6.3 metric for one system: the
// total time of a run with one reduce-phase failure plus whatever recovery
// run the model requires. rec is the resubmission's time, or the recovery
// phase of a model that masks the failure in place.
func totalWithFailure(name string, procs int, s Scale, model core.Model) (fail, rec, total time.Duration, first *core.Result) {
	o := scenario.Run(reduceFailure(name, procs, s, evalSpec(model)))
	first = o.Result()
	rec = first.MaxPhase(core.PhaseRecovery)
	if len(o.Attempts) > 1 {
		rec = o.Elapsed(1)
	}
	return o.Elapsed(0), rec, o.Total(), first
}

// fig08 — normalized total completion time of a failed job plus its
// recovery (§6.3 Figure 8).
func fig08(s Scale) *Table {
	t := &Table{
		ID:    "fig8",
		Title: "Normalized total time of failed + recovery runs (one reduce-phase failure)",
		Columns: []string{"procs", "mr-mpi(s)", "mr-mpi", "ckpt/restart",
			"detect/resume(WC)", "detect/resume(NWC)"},
	}
	for _, procs := range s.procSweep(32) {
		_, _, baseT, _ := totalWithFailure(fmt.Sprintf("fig8-base-%d", procs), procs, s, core.ModelNone)
		_, _, crT, _ := totalWithFailure(fmt.Sprintf("fig8-cr-%d", procs), procs, s, core.ModelCheckpointRestart)
		_, _, wcT, _ := totalWithFailure(fmt.Sprintf("fig8-wc-%d", procs), procs, s, core.ModelDetectResumeWC)
		_, _, nwcT, _ := totalWithFailure(fmt.Sprintf("fig8-nwc-%d", procs), procs, s, core.ModelDetectResumeNWC)
		t.AddRow(fmt.Sprint(procs), secs(baseT), "1.00",
			ratio(crT, baseT), ratio(wcT, baseT), ratio(nwcT, baseT))
	}
	t.Notes = append(t.Notes,
		"paper: CR beats MR-MPI by up to 33%, DR(WC) by up to 39%; DR(NWC) takes 12-17% longer than the checkpointing models")
	return t
}

// fig09 — completion time of the failure and recovery runs at 256 procs
// (§6.3 Figure 9).
func fig09(s Scale) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "Failure run + recovery run completion times (256 procs)",
		Columns: []string{"system", "failure-run(s)", "recovery(s)", "reprocess(s)", "total(s)"},
	}
	procs := min(256, s.MaxProcs)
	for _, m := range []core.Model{core.ModelNone, core.ModelCheckpointRestart, core.ModelDetectResumeWC, core.ModelDetectResumeNWC} {
		fail, rec, total, first := totalWithFailure("fig9-"+m.String(), procs, s, m)
		// Reprocessing time aggregated across ranks, averaged per rank.
		var rep time.Duration
		n := 0
		for _, rm := range first.Ranks {
			if rm != nil {
				rep += rm.Recovery.Reprocess
				n++
			}
		}
		if n > 0 {
			rep /= time.Duration(n)
		}
		t.AddRow(m.String(), secs(fail), secs(rec), secs(rep), secs(total))
	}
	t.Notes = append(t.Notes,
		"paper: recovering from checkpoints sharply cuts the recovery run; DR(NWC) pays ~15% more than DR(WC) for reprocessing")
	return t
}

// fig10 — decomposition of the aggregated time of all processes (§6.3
// Figure 10): shuffle / merge / reduce / recovery for the CR and DR-WC
// models under one reduce-phase failure.
func fig10(s Scale) *Table {
	t := &Table{
		ID:    "fig10",
		Title: "Aggregated per-phase time across all processes (reduce-phase failure)",
		Columns: []string{"procs", "system", "shuffle(s)", "merge(s)", "reduce(s)",
			"recovery(s)"},
	}
	for _, procs := range s.procSweep(64) {
		for _, m := range []core.Model{core.ModelCheckpointRestart, core.ModelDetectResumeWC} {
			name := fmt.Sprintf("fig10-%s-%d", m.String(), procs)
			var sh, mg, rd, rc time.Duration
			for i, res := range scenario.Run(reduceFailure(name, procs, s, evalSpec(m))).Results() {
				sh += res.PhaseTotal(core.PhaseShuffle)
				mg += res.PhaseTotal(core.PhaseConvert)
				rd += res.PhaseTotal(core.PhaseReduce)
				rc += res.PhaseTotal(core.PhaseRecovery)
				if i > 0 { // the restart's checkpoint reads and skips
					rc += res.RecoveryTotal().LoadCkpt + res.RecoveryTotal().Skip
				}
			}
			t.AddRow(fmt.Sprint(procs), m.String(), secs(sh), secs(mg), secs(rd), secs(rc))
		}
	}
	t.Notes = append(t.Notes,
		"paper: recovery dominates CR's aggregate (all ranks re-read checkpoints) while DR(WC) reads only the failed rank's data")
	return t
}

// fig15 — recovery-time impact of prefetching (§5.1, §6.6 Figure 15):
// checkpoint replay during a restarted job, reading from GPFS frame by
// frame, from GPFS with bulk prefetch staging, and a modeled local-disk
// reference for the same frames and bytes.
func fig15(s Scale) *Table {
	t := &Table{
		ID:      "fig15",
		Title:   "Recovery (checkpoint replay) time: local disk vs GPFS vs GPFS with prefetching",
		Columns: []string{"procs", "local-disk(s)", "gpfs(s)", "gpfs+prefetch(s)", "prefetch-saving"},
	}
	for _, procs := range s.procSweep(64) {
		recover := func(name string, prefetch bool) (load time.Duration, frames, bytes int64) {
			spec := evalSpec(core.ModelCheckpointRestart)
			spec.Prefetch = prefetch // only the restart replays checkpoints
			o := scenario.Run(reduceFailure(name, procs, s, spec))
			for _, rm := range o.Attempts[1].Result().Ranks {
				if rm != nil {
					frames += rm.RecoveredFrames
					bytes += rm.RecoveredBytes
					load += rm.Recovery.LoadCkpt
				}
			}
			return load / time.Duration(procs), frames, bytes
		}
		plain, frames, bytes := recover(fmt.Sprintf("fig15-plain-%d", procs), false)
		pref, _, _ := recover(fmt.Sprintf("fig15-pref-%d", procs), true)
		// Modeled local-disk reference: the same frames and bytes replayed
		// from an uncontended node-local disk.
		cfg := cluster.Default()
		perRankFrames := float64(frames) / float64(procs)
		perRankBytes := float64(bytes) / float64(procs)
		ppn := float64(cfg.PPN)
		localSec := perRankFrames/(cfg.LocalDiskIOPS/ppn) + perRankBytes/(cfg.LocalDiskBW/ppn)
		t.AddRow(fmt.Sprint(procs),
			fmt.Sprintf("%.3f", localSec),
			secs(plain), secs(pref), pct(pref, plain))
	}
	t.Notes = append(t.Notes,
		"paper: prefetching cuts GPFS recovery time by 52-57%, approaching local-disk speed",
		"local-disk column is a modeled uncontended reference (a failed process's local disk is unreachable in reality)")
	return t
}

// fig16 — two-pass vs four-pass KV→KMV conversion (§6.6 Figure 16).
func fig16(s Scale) *Table {
	t := &Table{
		ID:      "fig16",
		Title:   "KV→KMV conversion time: FT-MRMPI (2-pass) vs MR-MPI (4-pass)",
		Columns: []string{"procs", "2-pass(s)", "4-pass(s)", "saving"},
	}
	p := s.wcParams()
	sweep := s.procSweep(64)
	if len(sweep) > 0 && sweep[len(sweep)-1] > 1024 {
		sweep = sweep[:len(sweep)-1] // the paper plots 64..1024 here
	}
	for _, procs := range sweep {
		convert := func(name string, algo core.ConvertAlgo) time.Duration {
			spec := evalSpec(core.ModelNone)
			spec.Convert = algo
			return runWordcount(fmt.Sprintf("fig16-%s-%d", name, procs), procs, p, spec).MaxPhase(core.PhaseConvert)
		}
		t2 := convert("two", core.ConvertTwoPass)
		t4 := convert("four", core.ConvertFourPass)
		t.AddRow(fmt.Sprint(procs), secs(t2), secs(t4), pct(t2, t4))
	}
	t.Notes = append(t.Notes, "paper: the 2-pass conversion cuts conversion time by more than 50%")
	return t
}
