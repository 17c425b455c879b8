package main

import "time"

// The reference host shares its CPUs with other tenants, and the
// simulator's speed drifts by ±15–20% over tens of seconds: between
// runs, and within one process too. A fixed loop that does what the
// simulator's host time goes to drifts with it: goroutine hand-offs
// over unbuffered channels (kernel threads), small allocations and map
// inserts. The bench runs that loop after each point's GC, while
// nothing else is runnable, and states its time metrics on a nominal
// host where the loop runs refNominal rounds per second. The loop's
// code lives here, so no change to the repository moves it.
const (
	refNominal = 4000 // rounds/s; about the reference host's own speed
	refRun     = 60 * time.Millisecond
)

type refNode struct {
	next *refNode
	val  [6]uint64
}

var refSink *refNode

// hostSpeed runs the reference loop for refRun and returns its speed as
// a share of refNominal.
func hostSpeed() float64 {
	ping, pong, done := make(chan int), make(chan int), make(chan struct{})
	go func() {
		defer close(done)
		for v := range ping {
			pong <- v
		}
	}()
	defer func() {
		close(ping)
		<-done
	}()
	start := time.Now()
	rounds := 0
	for time.Since(start) < refRun {
		for i := 0; i < 200; i++ {
			ping <- i
			<-pong
		}
		var head *refNode
		for i := 0; i < 2000; i++ {
			head = &refNode{next: head}
		}
		refSink = head
		m := make(map[int]int)
		for i := 0; i < 500; i++ {
			m[i*7] = i
		}
		rounds++
	}
	return float64(rounds) / time.Since(start).Seconds() / refNominal
}
