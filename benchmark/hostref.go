package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// The host's speed is not constant: on a shared machine, neighbours' load
// slows every instruction, and so both the wall and the CPU time of a
// pass, by up to 45% for minutes at a time, which no run length averages
// away. So a run times a fixed reference task between every two
// measurements, while nothing else runs, and reports each measurement at
// reference host speed: multiplied by refNominalMs over the mean of the
// task's two times around it. The task is built only from the Go standard
// library and this file, so no change to the repository alters it.
// README.md gives the measurements behind this.

// refNominalMs is the reference task's median time on a quiet defining
// host (2 vCPUs, Intel Xeon, Go 1.24): reported times are at that speed.
const refNominalMs = 90.0

// speedometer samples the reference task over a run.
type speedometer struct {
	samples []float64 // ms
}

// factor converts a time measured between two reference samples, before
// and after, to reference host speed.
func factor(before, after float64) float64 { return 2 * refNominalMs / (before + after) }

// sample times the reference task once and returns its time in ms.
// Nothing else of the benchmark's may run meanwhile.
func (s *speedometer) sample() float64 {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	var sums [2]int
	for g := range sums { // as many as the tools' farm workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 6; r++ {
				sums[g] += refWork()
			}
		}()
	}
	wg.Wait()
	d := ms(time.Since(start))
	refSink = sums[0] + sums[1]
	s.samples = append(s.samples, d)
	return d
}

// refDoc is a JSON document shaped like a report artifact.
var refDoc = func() []byte {
	type point struct {
		Label   string             `json:"label"`
		Metrics map[string]float64 `json:"metrics"`
	}
	pts := make([]point, 1000)
	for i := range pts {
		pts[i] = point{Label: fmt.Sprintf("point %d", i), Metrics: map[string]float64{
			"gbps": float64(i) / 7, "cpu_pct": float64(i%100) + 0.5, "total_us": float64(i) * 1.25,
		}}
	}
	b, err := json.Marshal(pts)
	if err != nil {
		panic(err)
	}
	return b
}()

type refHeap []uint64

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(v any)        { *h = append(*h, v.(uint64)) }
func (h *refHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// refSink keeps the reference task's results alive.
var refSink int

// refWork is one unit of the reference task, a mix of what the simulator
// spends its host time on: goroutine hand-offs, first touches of fresh
// pages, map and event-heap operations, and JSON decoding.
func refWork() int {
	sum := 0
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
	}()
	for i := 0; i < 5000; i++ {
		ping <- i
		sum += <-pong
	}
	close(ping)
	for i := 0; i < 16; i++ {
		page := make([]byte, 256<<10)
		for p := 0; p < len(page); p += 4096 {
			page[p] = 1
		}
		sum += int(page[4096])
	}
	m := make(map[uint64]uint64)
	var h refHeap
	for i := uint64(0); i < 20000; i++ {
		m[i*2654435761] = i
		heap.Push(&h, i*2654435761%100003)
	}
	for h.Len() > 0 {
		sum += int(heap.Pop(&h).(uint64) & 1)
	}
	var doc any
	if err := json.Unmarshal(refDoc, &doc); err != nil {
		panic(err)
	}
	return sum + len(m)
}
