package adaptnoc

// Dependency-trace record & replay façade over internal/traffic: any live
// run can be captured into a compact ADNOCTRC blob (RecordTrace /
// FinishTrace), and a recorded stream replays through AppSpec.Trace /
// AppSpec.TraceData in place of a synthetic profile. Replay self-paces —
// each recorded packet injects a fixed gap after its recorded
// dependencies retire on the replaying fabric — so the same trace probes
// different designs, and the replay checkpoints, resumes, and shards like
// any other workload.

import (
	"crypto/sha256"
	"fmt"
	"os"
	"slices"

	"adaptnoc/internal/noc"
	"adaptnoc/internal/traffic"
)

// Re-exported trace types (see internal/traffic for the format).
type (
	// Trace is a decoded dependency trace: one recorded stream per app.
	Trace = traffic.Trace
	// TraceApp is one application's recorded stream.
	TraceApp = traffic.TraceApp
)

// EncodeTrace serializes a trace into the versioned ADNOCTRC format. The
// encoding is deterministic, so trace content is content-addressable
// wherever configs are.
func EncodeTrace(t *Trace) ([]byte, error) { return traffic.EncodeTrace(t) }

// DecodeTrace parses and validates an ADNOCTRC blob. It is safe on
// adversarial input: every count is bounds-checked before allocation.
func DecodeTrace(blob []byte) (*Trace, error) { return traffic.DecodeTrace(blob) }

// CheckProfile is the one profile-existence check every configuration
// entry path (the -apps parser, NewSim, Config.Validate) shares, so the
// error reads identically everywhere.
func CheckProfile(name string) error {
	if _, ok := traffic.ByName(name); !ok {
		return fmt.Errorf("adaptnoc: unknown profile %q (see adaptnoc-sim -profiles)", name)
	}
	return nil
}

// decodedTrace is a recording decoded from the blob whose SHA-256 is sum.
// The trace is read-only and shared by every source replaying it.
type decodedTrace struct {
	sum   [sha256.Size]byte
	trace *traffic.Trace
}

// traceDecodes decodes each distinct trace blob of one configuration
// once. A replay workload gives every spec the same recording, and after
// a JSON round trip (checkpoint restore, serving request) each spec holds
// its own copy of it, so blobs match by content digest, not by pointer.
// A spec may carry the decode TraceWorkload or RestoreSim made of it; that
// decode is reused only for blobs that still hash to its digest, so a
// caller who edits or replaces TraceData afterwards gets a fresh decode.
type traceDecodes struct {
	known  []*decodedTrace
	hashed []hashedBlob // one digest per distinct backing slice
}

type hashedBlob struct {
	data []byte
	sum  [sha256.Size]byte
}

// newTraceDecodes seeds the decodes with those the specs carry.
func newTraceDecodes(apps []AppSpec) traceDecodes {
	var d traceDecodes
	for _, a := range apps {
		if a.decoded != nil && !slices.Contains(d.known, a.decoded) {
			d.known = append(d.known, a.decoded)
		}
	}
	return d
}

// digest hashes blob once per backing slice: specs sharing one blob (as
// TraceWorkload's do) cost one SHA-256 between them.
func (d *traceDecodes) digest(blob []byte) [sha256.Size]byte {
	for _, h := range d.hashed {
		if len(h.data) == len(blob) && &h.data[0] == &blob[0] {
			return h.sum
		}
	}
	sum := sha256.Sum256(blob)
	d.hashed = append(d.hashed, hashedBlob{blob, sum})
	return sum
}

// decode returns the recording a non-empty blob holds.
func (d *traceDecodes) decode(blob []byte) (*decodedTrace, error) {
	sum := d.digest(blob)
	for _, e := range d.known {
		if e.sum == sum {
			return e, nil
		}
	}
	tr, err := traffic.DecodeTrace(blob)
	if err != nil {
		return nil, err
	}
	e := &decodedTrace{sum, tr}
	d.known = append(d.known, e)
	return e, nil
}

// carryTraceDecodes attaches to every replay spec the decode of its blob,
// so that Validate and NewSim on apps reuse one decode per distinct
// recording, and points equal blobs at one copy, so that each hashes the
// recording once. A blob that fails to decode is left bare for Validate
// to report.
func carryTraceDecodes(apps []AppSpec) {
	d := newTraceDecodes(apps)
	first := make(map[*decodedTrace][]byte)
	for i := range apps {
		a := &apps[i]
		if len(a.TraceData) == 0 {
			continue
		}
		if a.decoded, _ = d.decode(a.TraceData); a.decoded == nil {
			continue
		}
		if blob, ok := first[a.decoded]; ok {
			a.TraceData = blob
		} else {
			first[a.decoded] = a.TraceData
		}
	}
}

// resolveTraceSpec validates one replay spec and returns the recorded
// stream it names. As side effects it inlines a path-named file into
// spec.TraceData and attaches the decode to the spec (the spec is part of
// the config NewSim stores, which makes checkpoints taken from the sim
// self-contained).
func resolveTraceSpec(spec *AppSpec, gridW, gridH int, decodes *traceDecodes) (*traffic.TraceApp, error) {
	if spec.Profile != "" {
		return nil, fmt.Errorf("both profile %q and a trace set; a spec is one or the other", spec.Profile)
	}
	if spec.InstrBudget != 0 {
		return nil, fmt.Errorf("trace replay takes no instruction budget (the trace itself bounds the run)")
	}
	if len(spec.TraceData) == 0 {
		data, err := os.ReadFile(spec.Trace)
		if err != nil {
			return nil, fmt.Errorf("reading trace: %w", err)
		}
		spec.TraceData = data
	}
	spec.Trace = ""
	d, err := decodes.decode(spec.TraceData)
	if err != nil {
		return nil, err
	}
	spec.decoded = d
	tr := d.trace
	if spec.TraceApp < 0 || spec.TraceApp >= len(tr.Apps) {
		return nil, fmt.Errorf("trace has %d recorded apps, index %d", len(tr.Apps), spec.TraceApp)
	}
	ta := &tr.Apps[spec.TraceApp]
	if ta.W != spec.Region.W || ta.H != spec.Region.H {
		return nil, fmt.Errorf("region %dx%d does not match the recorded %dx%d (a replay may move the region but not resize it)",
			spec.Region.W, spec.Region.H, ta.W, ta.H)
	}
	if err := ta.FitsGrid(gridW, gridH); err != nil {
		return nil, err
	}
	return ta, nil
}

// TraceWorkload derives replay AppSpecs from a trace's own recorded
// placements: every recorded application replays in its original position
// with its original memory controllers. It returns the specs plus the
// recorded grid dimensions (the chip the placements assume). Every spec
// carries the one decode of data, which NewSim and Validate reuse for as
// long as the spec's TraceData still holds the same bytes.
func TraceWorkload(data []byte) ([]AppSpec, int, int, error) {
	sum := sha256.Sum256(data)
	tr, err := traffic.DecodeTrace(data)
	if err != nil {
		return nil, 0, 0, err
	}
	decoded := &decodedTrace{sum, tr}
	specs := make([]AppSpec, 0, len(tr.Apps))
	for i := range tr.Apps {
		a := &tr.Apps[i]
		var mcs []NodeID
		for _, mc := range a.MCs {
			rx, ry := int(mc)%a.W, int(mc)/a.W
			mcs = append(mcs, NodeID((a.Y+ry)*tr.GridW+(a.X+rx)))
		}
		specs = append(specs, AppSpec{
			Region:    Region{X: a.X, Y: a.Y, W: a.W, H: a.H},
			MCTiles:   mcs,
			TraceData: data,
			TraceApp:  i,
			decoded:   decoded,
		})
	}
	return specs, tr.GridW, tr.GridH, nil
}

// RecordTrace starts capturing this run into a dependency trace. It must
// be called before the first cycle of a fresh simulation — recorded
// release gaps are absolute from cycle 0, so a resumed run cannot be
// recorded. Collect the result with FinishTrace after running.
func (s *Sim) RecordTrace() error {
	if s.Kernel.Now() != 0 {
		return fmt.Errorf("adaptnoc: recording must start at cycle 0, not %d", s.Kernel.Now())
	}
	if s.rec != nil {
		return fmt.Errorf("adaptnoc: already recording")
	}
	rec := traffic.NewRecorder(s.Net.Cfg.Width, s.Net.Cfg.Height)
	for i, spec := range s.specs {
		rec.AddApp(i, s.apps[i].Profile.Name,
			spec.Region.X, spec.Region.Y, spec.Region.W, spec.Region.H,
			append([]noc.NodeID(nil), spec.MCTiles...))
	}
	s.Machine.SetRecorder(rec)
	s.rec = rec
	return nil
}

// FinishTrace assembles the recording started by RecordTrace into a
// validated trace. The simulation may keep running, but packets still in
// flight stay unrecorded tails: call it after the run window ends.
func (s *Sim) FinishTrace() (*Trace, error) {
	if s.rec == nil {
		return nil, fmt.Errorf("adaptnoc: RecordTrace was never called")
	}
	return s.rec.Finish()
}
