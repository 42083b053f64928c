// Command adaptnoc-fleet runs the distributed-experiment coordinator:
// POST a suite manifest to /v1/suites and the coordinator decomposes it
// into content-addressed work items, schedules them across registered
// adaptnoc-serve workers (leases, retries, work stealing, checkpoint
// handoff from dead nodes), and serves the merged tables — byte-identical
// to a local adaptnoc-experiments run of the same suite. See README.md
// ("Fleet") for the API walkthrough.
//
//	adaptnoc-fleet -addr :8090 -workers http://node1:8080,http://node2:8080
//
// Workers can also self-register: run adaptnoc-serve with
// -enroll http://coordinator:8090 and it registers and heartbeats itself.
//
// The fleet is tested end to end over loopback HTTP by internal/fleet's
// tests (TestMultiNodeKillByteIdentity kills a worker mid-suite, checks
// the merged tables against a local run, then resubmits the suite and
// checks it completes without a single new dispatch).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"adaptnoc/internal/fleet"
)

func main() {
	var (
		addr        = flag.String("addr", ":8090", "listen address")
		workers     = flag.String("workers", "", "comma-separated serve worker URLs to register at startup")
		lease       = flag.Duration("lease", 15*time.Second, "job lease interval (a dead coordinator frees its jobs within one)")
		poll        = flag.Duration("poll", 250*time.Millisecond, "job polling and lease-renewal period")
		stealAfter  = flag.Duration("steal-after", time.Minute, "duplicate a slow job onto an idle worker after this long (negative disables)")
		maxAttempts = flag.Int("max-attempts", 8, "dispatch attempts per work item before it fails permanently")
		parallel    = flag.Int("parallel", 0, "evaluations in flight per suite (0 = one per CPU)")
		ttl         = flag.Duration("heartbeat-ttl", 15*time.Second, "how long a worker stays schedulable after its last heartbeat or probe")
	)
	flag.Parse()

	c := fleet.New(fleet.Options{
		Lease:        *lease,
		Poll:         *poll,
		StealAfter:   *stealAfter,
		MaxAttempts:  *maxAttempts,
		Parallelism:  *parallel,
		HeartbeatTTL: *ttl,
		Logf:         log.Printf,
	})
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			c.AddWorker(u)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: c.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("adaptnoc-fleet listening on %s", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("stopping...")
	c.Close()
	hs.Shutdown(context.Background())
	log.Printf("stopped")
}
