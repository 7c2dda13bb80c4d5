package workloads

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ftmrmpi/internal/cluster"
	"ftmrmpi/internal/core"
)

// eachWord scans ASCII in place and leaves the rest to bytes.Fields; whatever
// the line, the words are bytes.Fields's.
func TestEachWordMatchesBytesFields(t *testing.T) {
	// White space of every kind bytes.Fields knows (ASCII, and U+0085, U+00A0,
	// U+2003 through the UTF-8 fallback), word bytes, and bytes that are
	// invalid UTF-8 on their own.
	alphabet := []string{" ", " ", "\t", "\n", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2003",
		"a", "b", "w000017", "\u00e9", "\u8a9e", "\x80", "\xc2", "\xe2\x80", "\xff", "\x00", "\x1f"}
	rng := rand.New(rand.NewSource(9))
	lines := []string{"", " ", "   ", "a", " a", "a ", "  a  b  ", "a b", " a", "a\xc2", "\xa0 \xa0", "w000001 w000002 \n"}
	for i := 0; i < 5000; i++ {
		var sb strings.Builder
		for n := rng.Intn(12); n > 0; n-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		lines = append(lines, sb.String())
	}
	for _, line := range lines {
		var got [][]byte
		eachWord([]byte(line), func(w []byte) { got = append(got, w) })
		want := bytes.Fields([]byte(line))
		if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("eachWord(%q) = %q, bytes.Fields says %q", line, got, want)
		}
	}
}

// genCorpusRef is GenCorpus as it was before it counted by word id and built
// chunks in one reused buffer: the reference the rewrite must equal.
func genCorpusRef(clus *cluster.Cluster, prefix string, p WordcountParams) map[string]int {
	rng := rand.New(rand.NewSource(p.Seed))
	zipf := rand.NewZipf(rng, 1.07, 4.0, uint64(p.Vocab-1))
	expect := make(map[string]int)
	words := make([]string, p.Vocab)
	var sb strings.Builder
	for c := 0; c < p.Chunks; c++ {
		sb.Reset()
		for l := 0; l < p.Lines; l++ {
			for w := 0; w < p.WordsLine; w++ {
				id := zipf.Uint64()
				if words[id] == "" {
					words[id] = fmt.Sprintf("w%06d", id)
				}
				word := words[id]
				expect[word]++
				sb.WriteString(word)
				sb.WriteByte(' ')
			}
			sb.WriteByte('\n')
		}
		clus.FS.Write(fmt.Sprintf("pfs:%s/chunk-%05d", prefix, c), []byte(sb.String()))
	}
	return expect
}

// TestGenCorpusMatchesReference holds GenCorpus to genCorpusRef byte for byte:
// at three small sizes, at wc-data's 128 chunks of 2048 lines, and at sizes
// that take the other paths: one word; 2^17 words (over 65 536) with the
// sampler's tables; ids past a million, whose words are eight bytes and more.
func TestGenCorpusMatchesReference(t *testing.T) {
	sized := func(seed int64, chunks, lines, vocab int) WordcountParams {
		p := DefaultWordcount()
		p.Chunks, p.Lines, p.Seed = chunks, lines, seed
		if vocab > 0 {
			p.Vocab = vocab
		}
		return p
	}
	for _, p := range []WordcountParams{
		sized(1, 6, 41, 0), sized(2, 6, 42, 0), sized(3, 6, 43, 0),
		sized(1, 128, 2048, 0), sized(2, 128, 2048, 0),
		sized(4, 3, 50, 1), sized(5, 4, 200, 1<<21), sized(6, 16, 2048, 1<<17),
	} {
		got, ref := testCluster(), testCluster()
		counts, refCounts := GenCorpus(got, "in/wc", p), genCorpusRef(ref, "in/wc", p)
		if !reflect.DeepEqual(counts, refCounts) {
			t.Fatalf("%+v: %d counted words differ from the reference's %d", p, len(counts), len(refCounts))
		}
		files, refFiles := got.FS.List(""), ref.FS.List("")
		if !reflect.DeepEqual(files, refFiles) || len(files) != p.Chunks {
			t.Fatalf("%+v: wrote %v, the reference %v", p, files, refFiles)
		}
		for _, f := range files {
			a, _ := got.FS.Read(f)
			b, _ := ref.FS.Read(f)
			if !bytes.Equal(a, b) {
				t.Fatalf("%+v: %s differs from the reference", p, f)
			}
		}
	}
}

// BenchmarkGenCorpus generates wc-data's corpus: 128 chunks of 2048 lines.
func BenchmarkGenCorpus(b *testing.B) {
	p := DefaultWordcount()
	p.Chunks, p.Lines = 128, 2048
	b.ReportAllocs()
	for range b.N {
		GenCorpus(testCluster(), "in/wc", p)
	}
}

// mapJobMallocs runs a two-task, two-rank wordcount with record-granularity
// checkpoints over chunks of the given length and returns the allocations the
// whole run made.
func mapJobMallocs(t *testing.T, lines int) uint64 {
	t.Helper()
	clus := testCluster()
	p := DefaultWordcount()
	p.Chunks, p.Lines, p.Vocab = 2, lines, 64
	name := fmt.Sprintf("allocs-%d", lines)
	GenCorpus(clus, "in/"+name, p)
	spec := WordcountSpec(name, "in/"+name, 2, p)
	spec.Model = core.ModelDetectResumeWC
	h := core.RunSingle(clus, spec)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	clus.Sim.Run()
	runtime.ReadMemStats(&after)
	res := h.Result()
	if res.Aborted || res.Ranks[0].RecordsMapped+res.Ranks[1].RecordsMapped != int64(2*lines) {
		t.Fatalf("%d-line job: aborted=%v, or not every record mapped", lines, res.Aborted)
	}
	return after.Mallocs - before.Mallocs
}

// TestMapTaskAllocsPerTask is the map path's allocation gate: reading a
// record, splitting it into words, hashing, filing and checkpointing its pairs
// allocates per task and per commit (every 100 records), never per record or
// per word. Everything else in the job is the same at both sizes (64 distinct
// words), so doubling the two chunks from 1024 to 2048 lines may add a few
// dozen allocations for each of the ~20 extra commits; one allocation per
// record (bytes.Fields' slice, or boxing the record ordinal) would add 2048.
func TestMapTaskAllocsPerTask(t *testing.T) {
	small, large := mapJobMallocs(t, 1024), mapJobMallocs(t, 2048)
	extra := int64(large) - int64(small)
	t.Logf("%d allocations with 1024-line chunks, %d with 2048-line chunks: %d more for 2048 more records", small, large, extra)
	if extra > 2048/2 {
		t.Errorf("2048 more records cost %d more allocations: the map path allocates per record", extra)
	}
}
