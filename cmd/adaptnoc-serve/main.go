// Command adaptnoc-serve runs the simulation-as-a-service daemon: POST a
// JSON configuration to /v1/sims, poll or stream the job, and let the
// content-addressed cache answer repeats instantly. See README.md
// ("Serving") for the API walkthrough.
//
//	adaptnoc-serve -addr :8080 -cachedir /var/cache/adaptnoc
//
// With -enroll the daemon registers itself with a fleet coordinator
// (adaptnoc-fleet) and heartbeats until shutdown; -public-url overrides
// the advertised address when the daemon sits behind NAT or a proxy.
//
// The serving path is tested end to end over loopback HTTP by
// internal/serve's tests (TestCacheHitByteIdentical submits the full
// Adapt-NoC design and checks the cache-hit bytes).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"adaptnoc/internal/fleet"
	"adaptnoc/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		queue      = flag.Int("queue", 64, "admission queue depth (full queue answers 429)")
		workers    = flag.Int("workers", 0, "worker pool size (0 = one per CPU)")
		cacheDir   = flag.String("cachedir", "", "persist results to this directory (empty = memory only)")
		cacheBytes = flag.Int64("cachebytes", 64<<20, "in-memory result cache budget in bytes")
		ckptBytes  = flag.Int64("checkpointbytes", 256<<20, "on-disk checkpoint directory budget in bytes (LRU eviction)")
		drainSecs  = flag.Int("drain", 60, "seconds to wait for in-flight jobs on shutdown")
		enroll     = flag.String("enroll", "", "register with a fleet coordinator at this URL and heartbeat")
		publicURL  = flag.String("public-url", "", "URL the coordinator should reach this daemon at (default derived from -addr)")
	)
	flag.Parse()

	// Checkpoints live beside the result cache: a canceled job's mid-run
	// state persists across daemon restarts just like finished results do.
	ckptDir := ""
	if *cacheDir != "" {
		ckptDir = filepath.Join(*cacheDir, "checkpoints")
	}
	srv := serve.New(serve.Options{
		QueueDepth:      *queue,
		Workers:         *workers,
		CacheBytes:      *cacheBytes,
		CacheDir:        *cacheDir,
		CheckpointDir:   ckptDir,
		CheckpointBytes: *ckptBytes,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("adaptnoc-serve listening on %s", ln.Addr())

	// Fleet enrollment: register with the coordinator and heartbeat until
	// shutdown, re-registering if the coordinator restarts. Failures are
	// retried forever — a worker outliving its coordinator is normal.
	var enrollCancel context.CancelFunc = func() {}
	if *enroll != "" {
		self := *publicURL
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		var ectx context.Context
		ectx, enrollCancel = context.WithCancel(context.Background())
		go func() {
			log.Printf("enrolling with %s as %s", *enroll, self)
			fleet.Enroll(ectx, *enroll, self, 5*time.Second)
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	enrollCancel()
	log.Printf("draining (up to %ds)...", *drainSecs)
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	hs.Shutdown(context.Background())
	log.Printf("drained")
}
