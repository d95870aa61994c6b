package main

// Reference outputs. Every figure the simulator produces is deterministic,
// so the benchmark checks each cell's run-log bytes, each sampled result's
// bytes and each configuration digest against values kept in refs.json.
// `swbench -write-refs` regenerates the file; do that only with a change
// that is meant to alter simulated results, and review the diff.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"softwatt"
)

// logRef pins one simulated cell.
type logRef struct {
	Config string `json:"config"` // configuration digest (the log-cache key)
	SHA256 string `json:"sha256"` // of the cell's logv2 run-log bytes
}

// powerRef pins one benchmark's CPU mean power on one detailed core: the
// exact figure from a full detailed run and the sampled estimate.
type powerRef struct {
	ExactW   float64 `json:"exact_w"`
	SampledW float64 `json:"sampled_w"`
	// SampledSHA256 is the hash of the sampled result's SRES file bytes.
	SampledSHA256 string `json:"sampled_sha256"`
}

type refs struct {
	Logs  map[string]logRef   `json:"logs"`  // key: cellKey
	Power map[string]powerRef `json:"power"` // key: core/benchmark
}

func loadRefs(path string) (*refs, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r refs
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// cellKey names a run-log cell: core/benchmark/disk policy.
func cellKey(s softwatt.RunSpec) string {
	pol := s.Options.DiskPolicy
	if pol == "" {
		pol = "conventional"
	}
	return s.Options.Core + "/" + s.Benchmark + "/" + pol
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

func logHash(r *softwatt.RunResult) (string, error) {
	var buf bytes.Buffer
	if err := softwatt.SaveResult(&buf, r); err != nil {
		return "", err
	}
	return sha256Hex(buf.Bytes()), nil
}

// sampledHash saves r as an SRES file in dir and hashes the file's bytes.
func sampledHash(dir string, r *softwatt.SampledResult) (string, error) {
	path := filepath.Join(dir, r.Benchmark+"-"+r.Core+".swsmp")
	if err := softwatt.SaveSampledResultFile(path, r); err != nil {
		return "", err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return sha256Hex(data), nil
}

// exactPowerW is a full detailed run's CPU mean power, the quantity a
// sampled estimate's windows measure.
func exactPowerW(r *softwatt.RunResult) float64 {
	s := softwatt.NewEstimator().Summarize(r)
	return s.CPUMemJ / s.TimeSec
}

// writeRefs simulates every reference cell and sampled run, on all CPUs
// (results do not depend on the worker count), and writes refs.json.
func writeRefs(path, scratch string) error {
	specs := append(paperSpecs(), fig9Specs()...)
	results, err := softwatt.RunBatch(specs, softwatt.BatchOptions{Workers: runtime.NumCPU()})
	if err != nil {
		return err
	}
	out := refs{Logs: map[string]logRef{}, Power: map[string]powerRef{}}
	for i, s := range specs {
		h, err := logHash(results[i])
		if err != nil {
			return err
		}
		out.Logs[cellKey(s)] = logRef{Config: softwatt.ResultDigest(results[i]), SHA256: h}
		if s.Options.DiskPolicy == "conventional" {
			out.Power[s.Options.Core+"/"+s.Benchmark] = powerRef{ExactW: exactPowerW(results[i])}
		}
	}
	for _, coreName := range []string{"mipsy", "mxs"} {
		for _, b := range softwatt.Benchmarks {
			so := sampleOptions(filepath.Join(scratch, "ff"))
			so.Workers = runtime.NumCPU()
			r, err := softwatt.RunSampled(b, softwatt.Options{Core: coreName}, so)
			if err != nil {
				return err
			}
			h, err := sampledHash(scratch, r)
			if err != nil {
				return err
			}
			key := coreName + "/" + b
			p := out.Power[key]
			p.SampledW, p.SampledSHA256 = r.MeanPowerW, h
			out.Power[key] = p
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
