package metrics

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// vtFamily is the synthetic gauge the exporter emits first so the snapshot
// virtual time survives a write/parse round trip.
const vtFamily = "ftmr_virtual_time_seconds"

// appendValue renders a float the way the exposition format pins it:
// shortest representation that round-trips ('g', precision -1), so integral
// values print without a decimal point and re-parsing is byte-exact.
func appendValue(dst []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(dst, "+Inf"...)
	}
	if math.IsInf(v, -1) {
		return append(dst, "-Inf"...)
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// formatValue is appendValue as a string.
func formatValue(v float64) string { return string(appendValue(nil, v)) }

// appendSeriesName appends a sample line up to its value: name, the sample
// suffix, the optional single label and the separating space.
func appendSeriesName(dst []byte, name, suffix, labelKey, labelValue string) []byte {
	dst = append(append(dst, name...), suffix...)
	if labelValue != "" {
		dst = append(append(append(dst, '{'), labelKey...), `="`...)
		dst = append(append(dst, labelValue...), `"}`...)
	}
	return append(dst, ' ')
}

// appendBucketName appends a histogram bucket line up to its value: name,
// the optional series label, the le label (+Inf for the last bucket) and the
// separating space.
func appendBucketName(dst []byte, name, labelKey, labelValue string, le float64) []byte {
	dst = append(append(dst, name...), `_bucket{`...)
	if labelValue != "" {
		dst = append(append(dst, labelKey...), `="`...)
		dst = append(append(dst, labelValue...), `",`...)
	}
	return append(appendValue(append(dst, `le="`...), le), `"} `...)
}

// WriteOpenMetrics renders the snapshot in OpenMetrics text format: a
// synthetic ftmr_virtual_time_seconds gauge first, then each family as
// "# HELP" / "# TYPE" lines followed by its series (counters gain the
// _total suffix; histograms expose cumulative _bucket lines plus _count and
// _sum), ending with "# EOF". Output is byte-deterministic for equal
// snapshots.
func WriteOpenMetrics(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# HELP %s Virtual time of this snapshot.\n", vtFamily)
	fmt.Fprintf(bw, "# TYPE %s gauge\n", vtFamily)
	fmt.Fprintf(bw, "%s %s\n", vtFamily, formatValue(snap.VTSeconds))
	// Sample lines, most of the file, are appended into one reused buffer.
	var line []byte
	put := func() {
		line = append(line, '\n')
		bw.Write(line)
	}
	for i := range snap.Families {
		f := &snap.Families[i]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.Name, f.Kind)
		for j := range f.Series {
			s := &f.Series[j]
			switch f.Kind {
			case KindCounter:
				line = appendValue(appendSeriesName(line[:0], f.Name, "_total", f.Label, s.LabelValue), s.Value)
				put()
			case KindGauge:
				line = appendValue(appendSeriesName(line[:0], f.Name, "", f.Label, s.LabelValue), s.Value)
				put()
			case KindHistogram:
				var cum uint64
				for bi, bound := range f.Buckets {
					cum += s.Counts[bi]
					line = strconv.AppendUint(appendBucketName(line[:0], f.Name, f.Label, s.LabelValue, bound), cum, 10)
					put()
				}
				cum += s.Counts[len(f.Buckets)]
				line = strconv.AppendUint(appendBucketName(line[:0], f.Name, f.Label, s.LabelValue, math.Inf(1)), cum, 10)
				put()
				line = strconv.AppendUint(appendSeriesName(line[:0], f.Name, "_count", f.Label, s.LabelValue), s.Count, 10)
				put()
				line = appendValue(appendSeriesName(line[:0], f.Name, "_sum", f.Label, s.LabelValue), s.Sum)
				put()
			}
		}
	}
	fmt.Fprintln(bw, "# EOF")
	return bw.Flush()
}

// parseFamily accumulates one family while parsing.
type parseFamily struct {
	fs      FamilySnapshot
	index   map[string]int // label value -> the series' index in fs.Series; nil while they arrive in order
	cum     [][]uint64     // histograms: each series' cumulative bucket counts, in line order
	bounds  []float64
	boundsK map[string]bool // bounds seen per series, to keep first series' order
}

// parser is the state of one ParseOpenMetrics call. The series of the family
// whose lines are being read are values in scratch, which is reused from
// family to family; when another family's lines start, they are copied out
// once, at their final size. Input that returns to a family after another
// one's lines reopens it.
type parser struct {
	fams    map[string]*parseFamily
	order   []*parseFamily
	open    *parseFamily // the family whose series scratch holds
	scratch []SeriesSnapshot
}

// ParseOpenMetrics reads text previously produced by WriteOpenMetrics (a
// practical subset of the OpenMetrics format: single optional label, no
// escape sequences in label values, exemplar-free) back into a Snapshot.
// The synthetic ftmr_virtual_time_seconds gauge becomes Snapshot.VTSeconds.
// A write→parse→write round trip is byte-identical.
func ParseOpenMetrics(r io.Reader) (Snapshot, error) {
	snap := Snapshot{}
	p := parser{fams: map[string]*parseFamily{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sawEOF := false
	lineno := 0
	for sc.Scan() {
		lineno++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if sawEOF {
			return snap, fmt.Errorf("metrics: line %d: content after # EOF", lineno)
		}
		if raw[0] == '#' {
			line := string(raw)
			switch {
			case line == "# EOF":
				sawEOF = true
			case strings.HasPrefix(line, "# HELP "):
				name, rest, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
				if name != vtFamily {
					p.family(name).fs.Help = rest
				}
			case strings.HasPrefix(line, "# TYPE "):
				name, rest, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
				if name == vtFamily {
					continue
				}
				pf := p.family(name)
				switch rest {
				case "counter":
					pf.fs.Kind = KindCounter
				case "gauge":
					pf.fs.Kind = KindGauge
				case "histogram":
					pf.fs.Kind = KindHistogram
				default:
					return snap, fmt.Errorf("metrics: line %d: unknown type %q", lineno, rest)
				}
			default:
				return snap, fmt.Errorf("metrics: line %d: unrecognized comment %q", lineno, line)
			}
			continue
		}
		// Sample lines, most of the file, are parsed in the scanner's buffer:
		// a string is made only for a series or bucket bound not seen before.
		sm, err := parseSampleLine(raw)
		if err != nil {
			return snap, fmt.Errorf("metrics: line %d: %v", lineno, err)
		}
		if string(sm.name) == vtFamily {
			snap.VTSeconds = sm.val
			continue
		}
		if err := p.addSample(sm); err != nil {
			return snap, fmt.Errorf("metrics: line %d: %v", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return snap, err
	}
	if !sawEOF {
		return snap, fmt.Errorf("metrics: missing # EOF terminator")
	}
	p.reopen(nil)
	snap.Families = make([]FamilySnapshot, 0, len(p.order))
	for _, pf := range p.order {
		if pf.fs.Kind == KindHistogram {
			pf.fs.Buckets = pf.bounds
			for i := range pf.fs.Series {
				var cum []uint64
				if i < len(pf.cum) {
					cum = pf.cum[i]
				}
				// One count per bound and one for +Inf, or the snapshot
				// cannot be rendered again.
				if len(cum) != len(pf.bounds)+1 {
					return snap, fmt.Errorf("metrics: histogram %s series %q has %d bucket lines for %d bounds and +Inf",
						pf.fs.Name, pf.fs.Series[i].LabelValue, len(cum), len(pf.bounds))
				}
				pf.fs.Series[i].Counts = decumulate(cum)
			}
		}
		snap.Families = append(snap.Families, pf.fs)
	}
	return snap, nil
}

// family returns (creating if needed) the in-progress family.
func (p *parser) family(name string) *parseFamily {
	pf, ok := p.fams[name]
	if !ok {
		pf = &parseFamily{boundsK: map[string]bool{}}
		pf.fs.Name = name
		p.fams[name] = pf
		p.order = append(p.order, pf)
	}
	return pf
}

// reopen makes pf the family whose series scratch holds, first copying the
// series of the one it held out at their size; nil only copies them out.
func (p *parser) reopen(pf *parseFamily) {
	if p.open == pf {
		return
	}
	if p.open != nil && len(p.scratch) > 0 {
		p.open.fs.Series = slices.Clone(p.scratch)
	}
	p.open = pf
	if pf != nil {
		p.scratch = append(p.scratch[:0], pf.fs.Series...)
	}
}

// series returns the index in scratch of the open family's series with the
// given label value (creating it if needed), recording its label key on the
// family.
func (p *parser) series(labelKey, labelVal []byte) int {
	pf := p.open
	if len(labelKey) != 0 && string(labelKey) != pf.fs.Label {
		pf.fs.Label = string(labelKey)
	}
	if pf.fs.Label == "" {
		pf.fs.Label = "rank"
	}
	// A series' lines are consecutive and WriteOpenMetrics writes the series
	// in order, so a label value is the last series' or a new one after it.
	// Only input in another order needs the index, built when it first does.
	n := len(p.scratch)
	if n > 0 && p.scratch[n-1].LabelValue == string(labelVal) {
		return n - 1
	}
	if pf.index == nil && (n == 0 || labelLess(p.scratch[n-1].LabelValue, string(labelVal))) {
		p.scratch = append(p.scratch, SeriesSnapshot{LabelValue: string(labelVal)})
		return n
	}
	if pf.index == nil {
		pf.index = make(map[string]int, n)
		for i := range p.scratch {
			pf.index[p.scratch[i].LabelValue] = i
		}
	}
	i, ok := pf.index[string(labelVal)]
	if !ok {
		i = n
		p.scratch = append(p.scratch, SeriesSnapshot{LabelValue: string(labelVal)})
		pf.index[p.scratch[i].LabelValue] = i
	}
	return i
}

// addSample routes one sample line into the right family/series slot based
// on the metric-name suffix.
func (p *parser) addSample(sm sample) error {
	base, part := sm.name, ""
	for _, suf := range [...]string{"_total", "_bucket", "_count", "_sum"} {
		if b, ok := bytes.CutSuffix(sm.name, []byte(suf)); ok && p.fams[string(b)] != nil {
			base, part = b, suf
			break
		}
	}
	pf := p.fams[string(base)]
	if pf == nil {
		return fmt.Errorf("sample %q has no preceding # TYPE", sm.name)
	}
	p.reopen(pf)
	i := p.series(sm.labelKey, sm.labelVal)
	ss := &p.scratch[i]
	switch {
	case pf.fs.Kind == KindCounter && part == "_total",
		pf.fs.Kind == KindGauge && part == "":
		ss.Value = sm.val
	case pf.fs.Kind == KindHistogram && part == "_bucket":
		if !sm.hasLE {
			return fmt.Errorf("bucket sample %q missing le label", sm.name)
		}
		if string(sm.le) != "+Inf" {
			bound, err := strconv.ParseFloat(string(sm.le), 64)
			if err != nil {
				return fmt.Errorf("bad le value %q", sm.le)
			}
			if !pf.boundsK[string(sm.le)] {
				pf.boundsK[string(sm.le)] = true
				pf.bounds = append(pf.bounds, bound)
				sort.Float64s(pf.bounds)
			}
		}
		for len(pf.cum) <= i {
			pf.cum = append(pf.cum, nil)
		}
		if pf.cum[i] == nil {
			pf.cum[i] = make([]uint64, 0, len(pf.bounds)+1)
		}
		pf.cum[i] = append(pf.cum[i], uint64(sm.val))
	case pf.fs.Kind == KindHistogram && part == "_count":
		ss.Count = uint64(sm.val)
	case pf.fs.Kind == KindHistogram && part == "_sum":
		ss.Sum = sm.val
	default:
		return fmt.Errorf("sample %q does not match %s family %q", sm.name, pf.fs.Kind, base)
	}
	return nil
}

// decumulate converts cumulative bucket counts (in ascending-le line order,
// +Inf last) to per-bucket counts, in place.
func decumulate(cum []uint64) []uint64 {
	var prev uint64
	for i, c := range cum {
		cum[i] = c - prev
		prev = c
	}
	return cum
}

// sample is one parsed sample line. The byte slices point into the line.
type sample struct {
	name               []byte
	labelKey, labelVal []byte // the series label; empty when the line has none
	le                 []byte // the bucket bound label, when hasLE
	hasLE              bool
	val                float64
}

// parseSampleLine splits `name{k="v",le="b"} value` into its parts: at most
// one series label and one le label, in either order (all this exporter
// emits). Label values must be quote-and-backslash-free.
func parseSampleLine(line []byte) (sm sample, err error) {
	nameEnd := bytes.IndexAny(line, "{ ")
	if nameEnd < 0 {
		return sm, fmt.Errorf("malformed sample %q", line)
	}
	sm.name = line[:nameEnd]
	rest := line[nameEnd:]
	if rest[0] == '{' {
		close := bytes.IndexByte(rest, '}')
		if close < 0 {
			return sm, fmt.Errorf("unterminated labels in %q", line)
		}
		for pairs := rest[1:close]; ; {
			pair, more, found := bytes.Cut(pairs, []byte(","))
			k, v, ok := bytes.Cut(pair, []byte("="))
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return sm, fmt.Errorf("malformed label %q", pair)
			}
			v = v[1 : len(v)-1]
			if bytes.ContainsAny(v, `"\`) {
				return sm, fmt.Errorf("unsupported escape in label %q", pair)
			}
			switch {
			case string(k) == "le" && !sm.hasLE:
				sm.le, sm.hasLE = v, true
			case string(k) != "le" && sm.labelKey == nil:
				sm.labelKey, sm.labelVal = k, v
			default:
				return sm, fmt.Errorf("more than one series label or le label in %q", line)
			}
			if !found {
				break
			}
			pairs = more
		}
		rest = rest[close+1:]
	}
	rest = bytes.TrimSpace(rest)
	sm.val, err = strconv.ParseFloat(string(rest), 64)
	if err != nil {
		return sm, fmt.Errorf("bad value %q", rest)
	}
	return sm, nil
}
