package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

const modulePath = "github.com/faasmem/faasmem/"

// startProfile starts a CPU profile of the traced phase. The returned stop
// function ends it, keeps a copy beside the span file and returns the
// encoded profile.
func startProfile(outDir, name string) (func() ([]byte, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return func() ([]byte, error) {
		pprof.StopCPUProfile()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, fmt.Errorf("write cpu profile: %w", err)
		}
		if err := os.WriteFile(filepath.Join(outDir, name+"-cpu.pprof"), buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("write cpu profile: %w", err)
		}
		return buf.Bytes(), nil
	}, nil
}

// layerOf maps a function name from a profile to the layer its package
// belongs to: a package of this repository by its last path element (every
// telemetry sub-package counts as telemetry), the Go runtime, encoding/json,
// the HTTP stack (net/http, net, its poller and syscalls), or other.
func layerOf(fn string) string {
	// Generated equality functions carry their type's package.
	fn = strings.TrimPrefix(fn, "type:.eq.")
	if !strings.Contains(fn, ".") {
		return "runtime" // assembly routines such as aeshashbody
	}
	// The package path ends at the first '.' after the last '/'.
	pkg := fn
	slash := strings.LastIndexByte(pkg, '/')
	if dot := strings.IndexByte(pkg[slash+1:], '.'); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, modulePath+"internal/telemetry"):
		return "telemetry"
	case strings.HasPrefix(pkg, modulePath+"internal/"):
		return pkg[strings.LastIndexByte(pkg, '/')+1:]
	case strings.HasPrefix(pkg, modulePath+"perfbench"):
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll" ||
		pkg == "syscall" || pkg == "bufio" || pkg == "mime":
		return "http"
	}
	return "other"
}

// cpuShares folds a CPU profile by the layer of each sample's leaf function
// (self time) and returns every cpuLayers share as "<layer>.cpu_pct".
func cpuShares(profile []byte) map[string]float64 {
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l+".cpu_pct"] = 0
	}
	byFn, err := leafSamples(profile)
	if err != nil {
		return out
	}
	var total float64
	for _, n := range byFn {
		total += float64(n)
	}
	if total == 0 {
		return out
	}
	for fn, n := range byFn {
		key := layerOf(fn) + ".cpu_pct"
		if _, ok := out[key]; !ok {
			key = "other.cpu_pct"
		}
		out[key] += 100 * float64(n) / total
	}
	return out
}

// leafSamples decodes a gzipped pprof profile (profile.proto) and sums the
// sample counts per leaf function name. Only the fields the fold needs are
// read: Profile.sample (2), Profile.location (4), Profile.function (5) and
// Profile.string_table (6).
func leafSamples(data []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		locFn   = map[uint64]uint64{} // location id → leaf function id
		fnName  = map[uint64]int64{}  // function id → string index
		strs    []string
	)
	err = fields(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: location_id (1, packed), value (2, packed)
			var s sample
			first := true
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && first:
					first = false
					if wire == 2 {
						s.leaf, _ = binary.Uvarint(b)
					} else {
						s.leaf = v
					}
				case num == 2 && s.count == 0:
					if wire == 2 {
						c, _ := binary.Uvarint(b)
						s.count = int64(c)
					} else {
						s.count = int64(v)
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: id (1), line (4) whose first entry is the leaf
			var id, fn uint64
			gotLine := false
			err := fields(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !gotLine:
					gotLine = true
					return fields(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locFn[id] = fn
			return err
		case 5: // Function: id (1), name (2)
			var id uint64
			var name int64
			err := fields(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if i := fnName[locFn[s.leaf]]; i >= 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += s.count
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// fields walks the top-level fields of one protobuf message, passing each
// field's number, wire type and either its varint value or its bytes.
func fields(b []byte, visit func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
			if err := visit(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			if err := visit(num, wire, binary.LittleEndian.Uint64(b), nil); err != nil {
				return err
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := visit(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			if err := visit(num, wire, uint64(binary.LittleEndian.Uint32(b)), nil); err != nil {
				return err
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
