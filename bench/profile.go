package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares attributes every sample of a CPU profile (pprof protobuf,
// gzipped as runtime/pprof writes it) to one of cpuBuckets and returns
// each bucket's share of the sampled CPU time. A sample goes to the
// innermost repository frame on its stack, so a stdlib leaf such as
// math.Log counts toward its caller; encoding/json and net frames
// passed on the way there are their own buckets. remserveMain says the
// profile is remserve's, whose package main counts as the remserve
// module; the benchmark's own package main belongs to no module.
func cpuShares(prof []byte, remserveMain bool) (map[string]float64, error) {
	samples, err := parseProfile(prof)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	acc := map[string]float64{}
	var total float64
	for _, s := range samples {
		acc[bucketOf(s.frames, remserveMain)] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			out[b] = acc[b] / total
		}
	}
	return out, nil
}

var moduleBuckets = func() map[string]bool {
	m := map[string]bool{}
	for _, b := range cpuBuckets {
		m[b] = true
	}
	return m
}()

func bucketOf(frames []string, remserveMain bool) string {
	via := ""
	for _, f := range frames {
		if m := moduleOf(f, remserveMain); m != "" {
			if via != "" {
				return via
			}
			return m
		}
		if via == "" {
			via = stdlibBucket(f)
		}
	}
	if via != "" {
		return via
	}
	allRuntime := true
	for _, f := range frames {
		switch {
		case strings.HasPrefix(f, "runtime.gcBgMarkWorker"), strings.HasPrefix(f, "runtime.bgsweep"),
			strings.HasPrefix(f, "runtime.bgscavenge"), strings.HasPrefix(f, "runtime.gcStart"):
			return "runtime.gc"
		case !strings.HasPrefix(f, "runtime."):
			allRuntime = false
		}
	}
	if allRuntime {
		return "runtime.other"
	}
	return "other"
}

// moduleOf maps a function name to its repository module, or "" for a
// frame outside every module.
func moduleOf(fn string, remserveMain bool) string {
	if rest, ok := strings.CutPrefix(fn, "rem/internal/"); ok {
		mod := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			mod = rest[:i]
		}
		if moduleBuckets[mod] {
			return mod
		}
		return "other"
	}
	if remserveMain && strings.HasPrefix(fn, "main.") {
		return "remserve"
	}
	return ""
}

func stdlibBucket(fn string) string {
	switch {
	case strings.HasPrefix(fn, "encoding/json."):
		return "encoding_json"
	case strings.HasPrefix(fn, "net."), strings.HasPrefix(fn, "net/"),
		strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "syscall."):
		return "net"
	}
	return ""
}

// profSample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), and its last value (CPU ns).
type profSample struct {
	frames []string
	value  float64
}

// parseProfile decodes the subset of profile.proto the attribution
// needs: samples, locations with their lines, functions and strings.
func parseProfile(raw []byte) ([]profSample, error) {
	if len(raw) == 0 {
		return nil, errors.New("empty profile")
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]int64{}    // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = fields(data, func(num, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2:
			var s rawSample
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, wire, v, b)
				case 2:
					s.values, err = appendVarints(s.values, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2:
			var id uint64
			var fns []uint64
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case num == 5 && wire == 2:
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 2 && wire == 0:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case num == 6 && wire == 2:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{value: float64(int64(s.values[len(s.values)-1]))}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i >= 0 && int(i) < len(strs) {
					ps.frames = append(ps.frames, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// fields calls fn for every field of one protobuf message: v carries
// varint and fixed-width values, b the bytes of length-delimited ones.
func fields(data []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints decodes one occurrence of a repeated varint field,
// packed (wire type 2) or not (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
