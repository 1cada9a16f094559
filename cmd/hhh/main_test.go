package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rhhh"
	"rhhh/internal/trace"
)

// testConfig matches the configuration testdata/parent-checkpoint.bin was
// written with: hhh's defaults (2D bytes, V = H, Space Saving, seed 1) at
// ε = δ = 0.05.
var testConfig = rhhh.Config{Dims: 2, Granularity: rhhh.Byte, Epsilon: 0.05, Delta: 0.05, Seed: 1}

func newMonitor(t *testing.T) *rhhh.Monitor {
	t.Helper()
	mon, err := rhhh.New(testConfig)
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// TestCheckpointRestoresRun: the checkpoint a run writes, periodically and
// at its end, restores the same N and HHH set into a fresh monitor.
func TestCheckpointRestoresRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hhh")
	mon := newMonitor(t)
	store, restored, err := openCheckpoint(path, mon)
	if err != nil || restored {
		t.Fatalf("fresh store: restored=%v, %v", restored, err)
	}
	src := &trace.Limit{Src: trace.NewSynthetic(trace.Profile("chicago16")), N: 100_000}
	for count := 1; ; count++ {
		p, ok := src.Next()
		if !ok {
			break
		}
		mon.Update(toNetip(p.SrcIP, false), toNetip(p.DstIP, false))
		if count%30_000 == 0 {
			if err := saveSnapshot(store, mon); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := saveSnapshot(store, mon); err != nil {
		t.Fatal(err)
	}

	fresh := newMonitor(t)
	if _, restored, err := openCheckpoint(path, fresh); err != nil || !restored {
		t.Fatalf("restore: restored=%v, %v", restored, err)
	}
	if fresh.N() != mon.N() {
		t.Fatalf("restored N=%d, want %d", fresh.N(), mon.N())
	}
	want := mon.HeavyHitters(0.01)
	if got := fresh.HeavyHitters(0.01); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored HHH set differs:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointAdoptsParentFile: a single-file checkpoint written before
// the checkpoint store is adopted as the store's first generation and
// restores; the path is then a store directory with nothing left beside
// it. It was written with
//
//	hhh -n 262144 -epsilon 0.05 -delta 0.05 -checkpoint parent-checkpoint.bin -checkpoint-every 0
func TestCheckpointAdoptsParentFile(t *testing.T) {
	data, err := os.ReadFile("testdata/parent-checkpoint.bin")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hhh.ckpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mon := newMonitor(t)
	if _, restored, err := openCheckpoint(path, mon); err != nil || !restored {
		t.Fatalf("restore: restored=%v, %v", restored, err)
	}
	if mon.N() != 262144 {
		t.Fatalf("restored N=%d, want 262144", mon.N())
	}
	var snap rhhh.Snapshot
	if err := snap.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got, want := mon.HeavyHitters(0.01), snap.HeavyHitters(0.01); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored HHH set differs from the file's:\n got %v\nwant %v", got, want)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("checkpoint path after adoption: %v, %v; want a store directory", fi, err)
	}
	if _, err := os.Stat(path + ".pre-store"); !os.IsNotExist(err) {
		t.Fatalf("adopted file left behind: %v", err)
	}
}
