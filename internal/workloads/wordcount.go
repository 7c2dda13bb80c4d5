// Package workloads implements the paper's four evaluation applications
// (§6.1) against the FT-MRMPI task-runner interfaces: wordcount, breadth
// first search, PageRank, and MR-MPI-BLAST (simulated: the NCBI toolkit is
// modeled as heavy external-library compute per query). Each workload ships
// a deterministic synthetic input generator and, for tests, a sequential
// reference implementation.
package workloads

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"unicode/utf8"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
)

// WordcountParams scales the wordcount benchmark.
type WordcountParams struct {
	Chunks     int // input chunks (map tasks)
	Lines      int // lines per chunk
	WordsLine  int // words per line
	Vocab      int // distinct words (Zipf-distributed)
	Seed       int64
	MapCost    float64 // CPU seconds per record (line)
	ReduceCost float64 // CPU seconds per group value
}

// DefaultWordcount returns the scaled-down stand-in for the paper's 128 GB
// wordcount runs.
func DefaultWordcount() WordcountParams {
	return WordcountParams{
		Chunks:    512,
		Lines:     256,
		WordsLine: 8,
		Vocab:     20000,
		Seed:      1,
		// Wordcount "involves very little computation" (§6.1); these costs
		// make it communication/I/O bound, like the paper's runs.
		MapCost:    100e-6,
		ReduceCost: 0.3e-6,
	}
}

// GenCorpus writes the synthetic corpus under prefix and returns the
// expected word counts (for verification at small scale). The word ids are
// rand.NewZipf(rng, 1.07, 4.0, Vocab-1)'s, drawn through zipfSampler.
func GenCorpus(clus *cluster.Cluster, prefix string, p WordcountParams) map[string]int {
	draws := p.Chunks * p.Lines * p.WordsLine
	zipf := newZipfSampler(rand.New(rand.NewSource(p.Seed)), 1.07, 4.0, uint64(p.Vocab-1), draws)
	counts := make([]int, p.Vocab) // by word id: the string-keyed map is built once, from them
	// Below a million ids every word is "w" and six digits, eight bytes with
	// its space: each is formatted the first time it is drawn, into cells, and
	// written as one store. Longer words are formatted where they are written.
	var cells []uint64 // 0 until drawn
	if p.Vocab <= 1e6 {
		cells = make([]uint64, p.Vocab)
	}
	chunk := make([]byte, 0, p.Lines*(8*p.WordsLine+1)) // reused: FS.Write copies it
	for c := 0; c < p.Chunks; c++ {
		chunk = chunk[:0]
		for l := 0; l < p.Lines; l++ {
			for w := 0; w < p.WordsLine; w++ {
				id := zipf.Uint64()
				counts[id]++
				if cells == nil {
					chunk = append(appendWord(chunk, id), ' ')
					continue
				}
				if cells[id] == 0 {
					var cell [8]byte
					appendWord(cell[:0], id)
					cell[7] = ' '
					cells[id] = binary.LittleEndian.Uint64(cell[:])
				}
				chunk = binary.LittleEndian.AppendUint64(chunk, cells[id])
			}
			chunk = append(chunk, '\n')
		}
		clus.FS.Write(fmt.Sprintf("pfs:%s/chunk-%05d", prefix, c), chunk)
	}
	distinct := 0
	for _, n := range counts {
		if n > 0 {
			distinct++
		}
	}
	expect := make(map[string]int, distinct)
	var word [32]byte
	for id, n := range counts {
		if n > 0 {
			expect[string(appendWord(word[:0], uint64(id)))] = n
		}
	}
	return expect
}

// appendWord appends vocabulary word id as fmt.Sprintf("w%06d", id) formats
// it.
func appendWord(dst []byte, id uint64) []byte {
	dst = append(dst, 'w')
	for pad := uint64(100000); pad > 1 && id < pad; pad /= 10 {
		dst = append(dst, '0')
	}
	return strconv.AppendUint(dst, id, 10)
}

// wcMapper emits (word, 1) per word of each line.
type wcMapper struct{ cost float64 }

// Map implements core.Mapper.
func (m *wcMapper) Map(ctx *core.TaskContext, k, v []byte, out core.KVWriter) error {
	// Emit copies the pair, so the words may alias the record.
	eachWord(v, func(w []byte) { out.Emit(w, one) })
	return nil
}

// asciiSpace marks the bytes that are white space in ASCII text.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// eachWord calls fn with every white-space-separated word of line — exactly
// the words bytes.Fields(line) returns, in order — without allocating the
// slice that holds them: ASCII text is scanned in place, and from the first
// byte >= 0x80 on (where telling white space takes UTF-8 decoding: U+0085,
// U+00A0, U+2003) the rest of the line is left to bytes.Fields.
func eachWord(line []byte, fn func(w []byte)) {
	start := -1 // where the word being scanned began; -1 between words
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			if start < 0 {
				start = i
			}
			for _, w := range bytes.Fields(line[start:]) {
				fn(w)
			}
			return
		case asciiSpace[c]:
			if start >= 0 {
				fn(line[start:i:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		fn(line[start:])
	}
}

// Cost implements core.Mapper.
func (m *wcMapper) Cost(k, v []byte) float64 { return m.cost }

var one = []byte{1}

// wcReducer sums the per-word counts.
type wcReducer struct{ cost float64 }

// Reduce implements core.Reducer.
func (r *wcReducer) Reduce(ctx *core.TaskContext, key []byte, vals [][]byte, out core.RecordWriter) error {
	total := 0
	for _, v := range vals {
		for _, b := range v {
			total += int(b)
		}
	}
	out.Write(key, []byte(strconv.Itoa(total)))
	return nil
}

// Cost implements core.Reducer.
func (r *wcReducer) Cost(key []byte, vals [][]byte) float64 {
	return r.cost * float64(len(vals))
}

// WordcountSpec builds the job spec for a generated corpus.
func WordcountSpec(name, inputPrefix string, nranks int, p WordcountParams) core.Spec {
	return core.Spec{
		Name:        name,
		JobID:       name,
		NumRanks:    nranks,
		InputPrefix: inputPrefix,
		NewReader:   core.NewLineReader,
		NewMapper:   func() core.Mapper { return &wcMapper{cost: p.MapCost} },
		NewReducer:  func() core.Reducer { return &wcReducer{cost: p.ReduceCost} },
	}
}

// eachOutput calls fn with the key and the value of every record in a job's
// output partitions, as views.
func eachOutput(clus *cluster.Cluster, jobID string, parts int, fn func(k, v []byte)) {
	for p := 0; p < parts; p++ {
		data, err := clus.PFS.Peek(fmt.Sprintf("out/%s/part-%05d", jobID, p))
		if err != nil {
			continue
		}
		eachLine(data, func(line []byte) {
			if k, v, ok := bytes.Cut(line, []byte{'\t'}); ok {
				fn(k, v)
			}
		})
	}
}

// ReadWordCounts parses a wordcount job's output partitions.
func ReadWordCounts(clus *cluster.Cluster, jobID string, parts int) map[string]int {
	out := make(map[string]int)
	eachOutput(clus, jobID, parts, func(word, count []byte) {
		if n, err := strconv.Atoi(string(count)); err == nil {
			out[string(word)] += n
		}
	})
	return out
}

// wcCombiner folds the local per-word counts before the shuffle (MR-MPI's
// "compress"). Values are little-endian varint-free byte sums: each value
// byte contributes its numeric value, so combining is idempotent over its
// own output.
type wcCombiner struct{ cost float64 }

// Combine implements core.Combiner.
func (c *wcCombiner) Combine(ctx *core.TaskContext, key []byte, vals [][]byte) ([]byte, error) {
	total := 0
	for _, v := range vals {
		for _, b := range v {
			total += int(b)
		}
	}
	// Encode as repeated 255s plus remainder so the reducer's byte-sum
	// decoding keeps working unchanged.
	out := make([]byte, 0, total/255+1)
	for total >= 255 {
		out = append(out, 255)
		total -= 255
	}
	if total > 0 || len(out) == 0 {
		out = append(out, byte(total))
	}
	return out, nil
}

// Cost implements core.Combiner.
func (c *wcCombiner) Cost(key []byte, vals [][]byte) float64 {
	return c.cost * float64(len(vals))
}

// WithCombiner enables local pre-reduction on a wordcount spec.
func WithCombiner(spec core.Spec, p WordcountParams) core.Spec {
	spec.NewCombiner = func() core.Combiner { return &wcCombiner{cost: p.ReduceCost} }
	return spec
}
