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
// One self-driving mode exists for CI:
//
//	-smoke          start on a loopback port, submit one small simulation
//	                to itself, verify the result parses and the
//	                resubmission is a byte-identical cache hit, drain,
//	                exit 0 — the gate that the whole serving path works.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"adaptnoc"
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
		smoke      = flag.Bool("smoke", false, "run the loopback self-test and exit")
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

	if *smoke {
		cl, stop, err := startLoopback(srv)
		if err != nil {
			log.Fatal(err)
		}
		err = runSmoke(cl)
		if stopErr := stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("smoke: ok")
		return
	}

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

// client drives a daemon over real HTTP on a loopback port.
type client struct{ base string }

// startLoopback serves srv on 127.0.0.1:0 and returns a client plus a stop
// function that drains the daemon and closes the listener.
func startLoopback(srv *serve.Server) (*client, func() error, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		return hs.Shutdown(context.Background())
	}
	return &client{base: "http://" + ln.Addr().String()}, stop, nil
}

func (c *client) submit(req serve.Request) (serve.JobInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobInfo{}, err
	}
	resp, err := http.Post(c.base+"/v1/sims", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobInfo{}, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return serve.JobInfo{}, err
	}
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		return serve.JobInfo{}, fmt.Errorf("submit: %s: %s", resp.Status, blob)
	}
	var info serve.JobInfo
	if err := json.Unmarshal(blob, &info); err != nil {
		return serve.JobInfo{}, err
	}
	return info, nil
}

func (c *client) wait(info serve.JobInfo, timeout time.Duration) (serve.JobInfo, error) {
	deadline := time.Now().Add(timeout)
	for !info.State.Terminal() {
		if time.Now().After(deadline) {
			return info, fmt.Errorf("job %s stuck in state %s", info.ID, info.State)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(c.base + "/v1/jobs/" + info.ID)
		if err != nil {
			return info, err
		}
		blob, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(blob, &info); err != nil {
			return info, err
		}
	}
	return info, nil
}

// runSmoke exercises the serving path end to end: submit the paper's mixed
// workload under the full Adapt-NoC design, wait, parse, resubmit for a
// byte-identical cache hit.
func runSmoke(cl *client) error {
	req := serve.Request{
		Config: adaptnoc.Config{
			Design: adaptnoc.DesignAdaptNoC,
			Apps:   adaptnoc.DefaultMixed(0),
			Seed:   2021,
		},
		Cycles: 20000,
	}
	info, err := cl.submit(req)
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if info, err = cl.wait(info, 2*time.Minute); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if info.State != serve.StateDone {
		return fmt.Errorf("smoke: job %s ended %s: %s", info.ID, info.State, info.Error)
	}
	res, err := adaptnoc.ParseResults(info.Results)
	if err != nil {
		return fmt.Errorf("smoke: results do not parse: %w", err)
	}
	if res.Cycles != req.Cycles {
		return fmt.Errorf("smoke: ran %d cycles, want %d", res.Cycles, req.Cycles)
	}

	again, err := cl.submit(req)
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if again.Cache != "hit" || again.State != serve.StateDone {
		return fmt.Errorf("smoke: resubmission not served from cache: cache=%s state=%s", again.Cache, again.State)
	}
	if !bytes.Equal(again.Results, info.Results) {
		return fmt.Errorf("smoke: cached results differ from computed results")
	}
	return nil
}
