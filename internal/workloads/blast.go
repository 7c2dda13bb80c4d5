package workloads

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
)

// MR-MPI-BLAST (§6.1, §6.5): parallel BLAST built as an iterative MapReduce
// job. The map task searches query sequences against a database partition
// using the (serial, external) NCBI toolkit; the reduce task sorts each
// query's hits by E-value and appends them to the output.
//
// Substitution: the NCBI toolkit and the RefSeq database are not available,
// so the search is modeled as heavy external-library compute whose cost
// scales with the query length, producing deterministic synthetic hits.
// This preserves what the paper measures: a compute-dominated MapReduce job
// in which checkpoints cannot be taken while control is inside the external
// library (the per-record cost is indivisible), so checkpoint overhead is
// proportionally tiny (Figure 13) while recovery savings are huge
// (Figure 14).

// BlastParams scales the BLAST-sim benchmark.
type BlastParams struct {
	Queries   int
	Chunks    int
	Seed      int64
	CostBase  float64 // external-library CPU seconds per query
	CostPerAA float64 // additional CPU seconds per residue
	MaxHits   int
}

// DefaultBlast approximates the paper's 12,000-query RefSeq workload.
func DefaultBlast() BlastParams {
	return BlastParams{
		Queries:   12000,
		Chunks:    512,
		Seed:      5,
		CostBase:  2e-3,
		CostPerAA: 4e-6,
		MaxHits:   6,
	}
}

// queryLen returns the deterministic residue count of a query.
func (p BlastParams) queryLen(q int) int {
	return 60 + int(mix(uint64(q)+uint64(p.Seed))%940)
}

// hits returns the synthetic hit list (db partition, E-value exponent) of a
// query — what the "external library" would have computed.
func (p BlastParams) hits(q int) [][]byte {
	h := mix(uint64(q)*977 + uint64(p.Seed))
	n := 1 + int(h%uint64(p.MaxHits))
	out := make([][]byte, n)
	for i := range out {
		h = mix(h)
		db := h % 64
		exp := 3 + h%40
		out[i] = fmt.Appendf(nil, "db%02d:1e-%02d", db, exp)
	}
	return out
}

// GenBlastInput writes the query chunks and returns expected sorted hits
// per query id (for verification).
func GenBlastInput(clus *cluster.Cluster, prefix string, p BlastParams) map[string]string {
	expect := make(map[string]string, p.Queries)
	perChunk := (p.Queries + p.Chunks - 1) / p.Chunks
	chunk := 0
	var sb strings.Builder
	for q := 0; q < p.Queries; q++ {
		qid := fmt.Sprintf("q%06d", q)
		fmt.Fprintf(&sb, "%s %d\n", qid, p.queryLen(q))
		hs := p.hits(q)
		slices.SortFunc(hs, bytes.Compare)
		expect[qid] = string(bytes.Join(hs, []byte{';'}))
		if (q+1)%perChunk == 0 || q == p.Queries-1 {
			clus.FS.Write(fmt.Sprintf("pfs:%s/chunk-%05d", prefix, chunk), []byte(sb.String()))
			sb.Reset()
			chunk++
		}
	}
	return expect
}

// blastMapper performs the simulated external-library search.
type blastMapper struct{ p BlastParams }

// parseQuery splits a query line `qNNNNNN len` into its two words, as views
// of it.
func parseQuery(v []byte) (id, length []byte, ok bool) {
	var words [2][]byte
	n := 0
	eachWord(v, func(w []byte) {
		if n < len(words) {
			words[n] = w
		}
		n++
	})
	return words[0], words[1], n == 2
}

// Map implements core.Mapper.
func (m *blastMapper) Map(ctx *core.TaskContext, k, v []byte, out core.KVWriter) error {
	id, _, ok := parseQuery(v)
	if !ok {
		return fmt.Errorf("blast: bad query line %q", v)
	}
	q, err := strconv.Atoi(string(bytes.TrimPrefix(id, []byte{'q'})))
	if err != nil {
		return fmt.Errorf("blast: bad query id %q: %v", id, err)
	}
	for _, hit := range m.p.hits(q) {
		out.Emit(id, hit)
	}
	return nil
}

// Cost implements core.Mapper: the whole search runs inside the external
// library, so the per-record cost is large and indivisible (§6.5).
func (m *blastMapper) Cost(k, v []byte) float64 {
	_, length, ok := parseQuery(v)
	if !ok {
		return m.p.CostBase
	}
	l, err := strconv.Atoi(string(length))
	if err != nil {
		return m.p.CostBase
	}
	return m.p.CostBase + m.p.CostPerAA*float64(l)
}

// blastReducer sorts each query's hits by E-value.
type blastReducer struct {
	cost float64
	hs   [][]byte // reused: the group's hits, sorted
	buf  []byte   // reused: Write copies it
}

// Reduce implements core.Reducer.
func (r *blastReducer) Reduce(ctx *core.TaskContext, key []byte, vals [][]byte, out core.RecordWriter) error {
	r.hs = append(r.hs[:0], vals...)
	slices.SortFunc(r.hs, bytes.Compare)
	r.buf = r.buf[:0]
	for _, h := range r.hs {
		r.buf = append(append(r.buf, h...), ';')
	}
	out.Write(key, bytes.TrimSuffix(r.buf, []byte{';'}))
	return nil
}

// Cost implements core.Reducer.
func (r *blastReducer) Cost(key []byte, vals [][]byte) float64 {
	return r.cost * float64(len(vals))
}

// BlastSpec builds the job spec for a generated query set.
func BlastSpec(name, inputPrefix string, nranks int, p BlastParams) core.Spec {
	return core.Spec{
		Name:        name,
		JobID:       name,
		NumRanks:    nranks,
		InputPrefix: inputPrefix,
		NewReader:   core.NewLineReader,
		NewMapper:   func() core.Mapper { return &blastMapper{p: p} },
		NewReducer:  func() core.Reducer { return &blastReducer{cost: 5e-6} },
	}
}

// ReadBlastHits parses a BLAST job's output into query→sorted hit list.
func ReadBlastHits(clus *cluster.Cluster, jobID string, parts int) map[string]string {
	out := make(map[string]string)
	eachOutput(clus, jobID, parts, func(q, hits []byte) { out[string(q)] = string(hits) })
	return out
}
