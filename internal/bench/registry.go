package bench

import (
	"fmt"
	"sort"
)

// Figure is a reproducible experiment from the paper's evaluation.
type Figure struct {
	ID    string
	Run   func(Scale) *Table
	Brief string
}

// Figures lists every reproduced figure in paper order.
func Figures() []Figure {
	return []Figure{
		{"fig3", fig03, "recovery time vs checkpoint granularity (PageRank, CR)"},
		{"fig4", fig04, "completion time vs checkpoint location"},
		{"fig5", fig05, "failure-free overhead, strong scaling, 4 systems"},
		{"fig6", fig06, "% checkpoint overhead vs records/checkpoint"},
		{"fig7", fig07, "copier thread CPU/IO decomposition"},
		{"fig8", fig08, "failed+recovery total time, strong scaling"},
		{"fig9", fig09, "failure and recovery run times at 256 procs"},
		{"fig10", fig10, "aggregated per-phase decomposition, CR vs DR-WC"},
		{"fig11", fig11, "PageRank under continuous failures"},
		{"fig12", fig12, "BFS under continuous failures"},
		{"fig13", fig13, "BLAST failure-free overhead, strong scaling"},
		{"fig14", fig14, "BLAST recovery time, 4 systems"},
		{"fig15", fig15, "recovery prefetching impact"},
		{"fig16", fig16, "2-pass vs 4-pass KV→KMV conversion"},
		{"abl-lb", ablLB, "ablation: load balancer on/off for recovered work"},
		{"abl-queue", ablQueue, "ablation: gang-scheduler queue wait for CR resubmission"},
		{"abl-combiner", ablCombiner, "ablation: local pre-reduction (compress) before the shuffle"},
		{"abl-lb-trace", ablLBTrace, "ablation: static vs trace-driven balancing under an injected straggler"},
		{"abl-restore", ablRestore, "ablation: peer-replica restore vs PFS-only recovery under repeated kills"},
		{"abl-ftmodel", ablFTModel, "ablation: replication (-ft-model=replicate) vs checkpoint/restart cost crossover"},
		{"thr-des", thrDES, "simulator throughput: events per second of the 10k-rank wordcount ceiling"},
	}
}

// Lookup returns the figure with the given id.
func Lookup(id string) (Figure, error) {
	for _, f := range Figures() {
		if f.ID == id {
			return f, nil
		}
	}
	var ids []string
	for _, f := range Figures() {
		ids = append(ids, f.ID)
	}
	sort.Strings(ids)
	return Figure{}, fmt.Errorf("bench: unknown figure %q (have %v)", id, ids)
}
