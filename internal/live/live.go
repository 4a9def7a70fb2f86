// Package live is the serving half of the reproduction: instead of
// replaying a scenario batch-style (compile → run → report), it keeps
// a scenario *resident* — the FPSS construction converged once per
// epoch by fpss.Run, the same run every other path uses, and then
// serving route and payment queries from the converged tables —
// behind a small RPC boundary.
//
// Two pieces compose:
//
//   - Server compiles a scenario.Spec and converges each churn epoch's
//     fpss.Node principals without a process restart. Each epoch's
//     converged tables are checked against the central solution the
//     batch checker seeds that epoch from (churn.Epoch.CentralState,
//     one fpss.ComputeCentral of the epoch's graph), so serving and
//     checking share one notion of "the honest tables".
//   - Loadgen drives the server open-loop: a seed-deterministic
//     request schedule at a target rate, with latency measured from
//     each request's *scheduled* arrival (queueing delay included —
//     the open-loop discipline that makes coordinated omission
//     visible), recorded into an HDR-style log-linear histogram.
//
// Determinism: an epoch's converged tables, its Pay obligations and
// its Stats.Net counters are functions of the spec, the epoch and the
// injected deviant, the same on every run. Wall-clock latencies are
// not.
package live

import (
	"fmt"

	"repro/internal/sim"
)

// Op names one RPC operation.
type Op string

const (
	// OpRoute asks for the serving node's converged route to Dst.
	OpRoute Op = "route"
	// OpPay asks for the source's payment obligation for a flow —
	// who gets paid how much for Packets packets to Dst.
	OpPay Op = "pay"
	// OpStats snapshots server and protocol-run counters.
	OpStats Op = "stats"
	// OpInject rebuilds the resident epoch: install a catalogued
	// deviation on a node, or advance one churn epoch (honest).
	OpInject Op = "inject"
)

// Request is one RPC request. Exactly one Op is interpreted; unused
// fields are ignored.
type Request struct {
	Op Op `json:"op"`
	// Src/Dst select the flow for OpRoute and OpPay.
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// Packets scales OpPay obligations (default 1).
	Packets int64 `json:"packets,omitempty"`
	// Node/Deviation select the deviant for OpInject.
	Node      int    `json:"node,omitempty"`
	Deviation string `json:"deviation,omitempty"`
	// Advance moves the server one churn epoch forward (OpInject).
	Advance bool `json:"advance,omitempty"`
}

// Payment is one entry of a payment obligation.
type Payment struct {
	To     int   `json:"to"`
	Amount int64 `json:"amount"`
}

// Stats is the OpStats payload.
type Stats struct {
	// Epoch is the current 0-based epoch; Epochs the timeline length
	// (1 for static scenarios).
	Epoch  int `json:"epoch"`
	Epochs int `json:"epochs"`
	// N is the current epoch's node count.
	N int `json:"n"`
	// Deviant names the injected deviation ("" = honest) and the node
	// running it.
	Deviant     string `json:"deviant,omitempty"`
	DeviantNode int    `json:"deviantNode,omitempty"`
	// Divergence counts nodes whose converged served tables differ from
	// the central solution (always 0 on an honest reliable epoch —
	// pinned by test; central unavailable under loss ⇒ -1).
	Divergence int `json:"divergence"`
	// Net is the cumulative counters of the fpss.Run that converged
	// the current epoch, both construction phases.
	Net sim.Counters `json:"net"`
}

// Response is one RPC response. Err is set (and OK false) on failure;
// the payload fields are op-specific.
type Response struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// OpRoute: hop-by-hop path (including endpoints) and its transit
	// cost as believed by the serving node.
	Path []int `json:"path,omitempty"`
	Cost int64 `json:"cost,omitempty"`
	// OpPay: per-transit obligations and their total.
	Payments []Payment `json:"payments,omitempty"`
	Total    int64     `json:"total,omitempty"`
	// Epoch echoes the epoch that served the request.
	Epoch int `json:"epoch"`
	// OpStats payload.
	Stats *Stats `json:"stats,omitempty"`
}

// Dispatcher is the in-process RPC boundary: the Server implements it
// directly, the TCP client implements it over a connection, and the
// load generator drives either one identically.
type Dispatcher interface {
	Dispatch(Request) Response
}

func fail(format string, args ...any) Response {
	return Response{Err: fmt.Sprintf(format, args...)}
}
