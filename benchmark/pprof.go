package benchmark

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal reader for the CPU profiles runtime/pprof writes (gzipped
// profile.proto): just enough to walk each sample's stack of function names.
// The standard library has no profile parser and the module may not grow a
// dependency.

var errProto = errors.New("malformed profile")

// pbField is one decoded protobuf field: a varint value or a
// length-delimited body.
type pbField struct {
	num  int
	wire int
	val  uint64
	body []byte
}

func pbVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// pbEach calls fn for every field of a message.
func pbEach(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, rest, err := pbVarint(b)
		if err != nil {
			return err
		}
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.val, rest, err = pbVarint(rest)
			if err != nil {
				return err
			}
		case 1:
			if len(rest) < 8 {
				return errProto
			}
			rest = rest[8:]
		case 2:
			var n uint64
			n, rest, err = pbVarint(rest)
			if err != nil || n > uint64(len(rest)) {
				return errProto
			}
			f.body, rest = rest[:n], rest[n:]
		case 5:
			if len(rest) < 4 {
				return errProto
			}
			rest = rest[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
		b = rest
	}
	return nil
}

// pbInts appends a repeated integer field's values, packed or not.
func pbInts(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.val), nil
	}
	b := f.body
	for len(b) > 0 {
		v, rest, err := pbVarint(b)
		if err != nil {
			return nil, err
		}
		out, b = append(out, v), rest
	}
	return out, nil
}

// stackSample is one profile sample: function names innermost first, and the
// CPU time it stands for.
type stackSample struct {
	funcs []string
	ns    int64
}

// parseCPUProfile decodes a runtime/pprof CPU profile.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string-table index
		strs    []string
	)
	err = pbEach(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample
			var s sample
			if err := pbEach(f.body, func(g pbField) (err error) {
				switch g.num {
				case 1:
					s.locs, err = pbInts(g, s.locs)
				case 2:
					s.vals, err = pbInts(g, s.vals)
				}
				return err
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbEach(f.body, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 4: // Line
					return pbEach(g.body, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			if err := pbEach(f.body, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(f.body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) < 2 {
			return nil, fmt.Errorf("%w: sample has %d values, a CPU profile has 2", errProto, len(s.vals))
		}
		st := stackSample{ns: int64(s.vals[1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

const internalPrefix = "ftmrmpi/internal/"

// layerOf names the layer a stack's CPU time is charged to: the innermost
// frame in one of cpuLayers, else go_gc for collector stacks, else go_other.
func layerOf(funcs []string) string {
	gc := false
	for _, fn := range funcs {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg = pkg[strings.LastIndexByte(pkg, '/')+1:]
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
		}
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgs") {
			gc = true
		}
	}
	if gc {
		return "go_gc"
	}
	return "go_other"
}

// cpuByLayer adds a CPU profile's seconds per layer into out.
func cpuByLayer(profile []byte, out map[string]float64) error {
	samples, err := parseCPUProfile(profile)
	if err != nil {
		return err
	}
	for _, s := range samples {
		out[layerOf(s.funcs)] += float64(s.ns) / 1e9
	}
	return nil
}
