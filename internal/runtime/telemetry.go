package runtime

import (
	"maps"
	"sync"
	"sync/atomic"

	"unigpu/internal/obs"
)

// Compiled-plan registry behind the /debug/plans endpoint: every NewPlan
// files a record here (bounded; oldest dropped) so a live serving process
// can be asked what it has compiled. A record holds the plan's metadata,
// not the plan: a plan pins its packed conv weights, so keeping the last
// maxRegisteredPlans plans alive would keep their weights alive too.

const maxRegisteredPlans = 64

var (
	plansMu  sync.Mutex
	plansReg []*planRecord
)

// planRecord is what the registry keeps of one plan: its metadata, taken
// at NewPlan (plans are immutable apart from their label), and the label,
// which the plan shares so a later SetLabel shows up.
type planRecord struct {
	info  PlanInfo
	label atomic.Pointer[string]
}

func init() {
	obs.RegisterDebug("plans", func() any { return PlanInfos() })
}

func registerPlan(p *Plan) {
	p.rec = &planRecord{}
	p.rec.info = p.Info()
	plansMu.Lock()
	if len(plansReg) == maxRegisteredPlans {
		copy(plansReg, plansReg[1:])
		plansReg = plansReg[:len(plansReg)-1]
	}
	plansReg = append(plansReg, p.rec)
	plansMu.Unlock()
}

// SetLabel names the plan in telemetry (the /debug/plans dump); unigpu
// sets it to the compiled model's name.
func (p *Plan) SetLabel(label string) {
	p.rec.label.Store(&label)
}

// Label returns the telemetry label ("" until SetLabel).
func (p *Plan) Label() string { return p.rec.labelString() }

func (r *planRecord) labelString() string {
	if l := r.label.Load(); l != nil {
		return *l
	}
	return ""
}

// PlanInfo is the compiled-plan metadata dumped at /debug/plans.
type PlanInfo struct {
	Label             string         `json:"label,omitempty"`
	Nodes             int            `json:"nodes"`
	GPUNodes          int            `json:"gpu_nodes"`
	CPUNodes          int            `json:"cpu_nodes"`
	Inputs            int            `json:"inputs"`
	Outputs           int            `json:"outputs"`
	ArenaBytes        int            `json:"arena_bytes"`
	PeakLiveBytes     int            `json:"peak_live_bytes"`
	IntermediateBytes int            `json:"intermediate_bytes"`
	Kernels           map[string]int `json:"kernels,omitempty"` // selected conv kernels by name
}

// Info summarizes the plan for telemetry.
func (p *Plan) Info() PlanInfo {
	info := PlanInfo{
		Label:             p.Label(),
		Nodes:             len(p.nodes),
		Inputs:            len(p.inputs),
		Outputs:           len(p.outputs),
		ArenaBytes:        p.ArenaBytes(),
		PeakLiveBytes:     p.peakLive,
		IntermediateBytes: p.interBytes,
	}
	for i := range p.nodes {
		pn := &p.nodes[i]
		if pn.gpu {
			info.GPUNodes++
		} else {
			info.CPUNodes++
		}
		if pn.conv != nil {
			if info.Kernels == nil {
				info.Kernels = map[string]int{}
			}
			info.Kernels[pn.conv.Kernel().String()]++
		}
	}
	return info
}

// PlanInfos snapshots the registered plans, oldest first.
func PlanInfos() []PlanInfo {
	plansMu.Lock()
	defer plansMu.Unlock()
	out := make([]PlanInfo, len(plansReg))
	for i, r := range plansReg {
		out[i] = r.info
		out[i].Label = r.labelString()
		out[i].Kernels = maps.Clone(r.info.Kernels)
	}
	return out
}
