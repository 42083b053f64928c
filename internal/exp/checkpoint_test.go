package exp

import (
	"context"
	"os"
	"reflect"
	"testing"

	"adaptnoc"
)

// TestRunDesignCheckpointResumeIdentical pins the experiment driver's
// checkpointing contract: results are identical with checkpointing off,
// with periodic checkpoints, when fast-forwarding from a kept final
// checkpoint, and when resuming from a mid-run checkpoint.
func TestRunDesignCheckpointResumeIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := quick()
	o.Cycles = 30000
	apps := adaptnoc.DefaultMixed(0)
	ctx := context.Background()

	plain, err := o.runDesign(ctx, adaptnoc.DesignAdaptNoC, apps)
	if err != nil {
		t.Fatal(err)
	}

	ck := o
	ck.CheckpointDir = t.TempDir()
	ck.CheckpointEvery = 7000 // not a divisor of Cycles: exercises the tail slice
	got, err := ck.runDesign(ctx, adaptnoc.DesignAdaptNoC, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("checkpointed run differs:\nplain: %+v\n ckpt: %+v", plain, got)
	}
	path, err := ck.checkpointFile(ck.buildConfig(adaptnoc.DesignAdaptNoC, apps))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("final checkpoint not kept: %v", err)
	}

	// Resume from the kept final checkpoint: no cycles left to run, the
	// results come straight off the restored state.
	res := ck
	res.Resume = true
	got, err = res.runDesign(ctx, adaptnoc.DesignAdaptNoC, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("fast-forwarded run differs:\nplain: %+v\nresume: %+v", plain, got)
	}

	// Resume from a mid-run checkpoint, as an interrupted suite would.
	s, err := adaptnoc.NewSim(ck.buildConfig(adaptnoc.DesignAdaptNoC, apps))
	if err != nil {
		t.Fatal(err)
	}
	s.Run(11000)
	if err := (&adaptnoc.ChainWriter{Path: path}).Save(s); err != nil {
		t.Fatal(err)
	}
	got, err = res.runDesign(ctx, adaptnoc.DesignAdaptNoC, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("mid-run resume differs:\nplain: %+v\nresume: %+v", plain, got)
	}
}

// TestRunDesignCheckpointBudgeted covers the run-to-completion path:
// budgeted runs checkpoint and resume with identical results too.
func TestRunDesignCheckpointBudgeted(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := quick()
	apps := []adaptnoc.AppSpec{
		{Profile: "bfs", Region: adaptnoc.Region{X: 0, Y: 0, W: 4, H: 4}, InstrBudget: o.Budget},
		{Profile: "canneal", Region: adaptnoc.Region{X: 4, Y: 0, W: 4, H: 4}, InstrBudget: o.Budget},
	}
	ctx := context.Background()

	plain, err := o.runDesign(ctx, adaptnoc.DesignBaseline, apps)
	if err != nil {
		t.Fatal(err)
	}

	ck := o
	ck.CheckpointDir = t.TempDir()
	ck.CheckpointEvery = 5000
	got, err := ck.runDesign(ctx, adaptnoc.DesignBaseline, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("checkpointed budgeted run differs:\nplain: %+v\n ckpt: %+v", plain, got)
	}

	res := ck
	res.Resume = true
	got, err = res.runDesign(ctx, adaptnoc.DesignBaseline, apps)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, got) {
		t.Fatalf("resumed budgeted run differs:\nplain: %+v\nresume: %+v", plain, got)
	}
}
