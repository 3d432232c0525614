package dist

import (
	"encoding/json"

	"repro/internal/sweep"
)

// Unit is one leasable work unit: a contiguous range of the batch's input
// indices plus the self-contained payload a worker needs to execute them.
// Units carry everything over the wire — workers share no filesystem or
// configuration with the coordinator.
type Unit struct {
	// ID is the unit's index in the coordinator's shard list.
	ID int `json:"id"`
	// Range is the half-open input-index interval this unit covers.
	Range sweep.Range `json:"range"`
	// Kind names the payload family (a work-registry kind, e.g.
	// "scenario-batch") so an executor can refuse units it does not
	// understand.
	Kind string `json:"kind"`
	// Payload is the kind-specific work description.
	Payload json.RawMessage `json:"payload"`
	// Batch identifies the batch this unit belongs to (the store's
	// kind-hash batch ID); workers echo it on heartbeats, results, and
	// failure reports so the service can route them.
	Batch string `json:"batch,omitempty"`
}

// leaseRequest is the body of POST /v1/lease.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse is the coordinator's answer to a lease request: a unit to
// execute, a backoff hint when everything is currently leased, or done.
type LeaseResponse struct {
	// Done reports that no more work will ever be handed out: the service
	// is shutting down (a one-batch `sweepd serve` stops its service once
	// the batch is terminal). Workers exit.
	Done bool `json:"done"`
	// Unit is the leased work unit, nil when Done or when all remaining
	// units are leased to other workers.
	Unit *Unit `json:"unit,omitempty"`
	// Env, present only alongside Unit, is the batch's declared
	// environment (work.EnvDescriber) — for the experiments kind, the
	// simulation scale the batch hash pins. Workers with a VerifyEnv
	// hook check it against their local environment and hard-fail on
	// mismatch instead of silently blending scales into one result set.
	Env json.RawMessage `json:"env,omitempty"`
	// LeaseTTLMS is the lease duration; workers heartbeat a few times per
	// TTL to keep the lease alive.
	LeaseTTLMS int64 `json:"lease_ttl_ms,omitempty"`
	// RetryAfterMS hints how long to wait before the next lease request
	// when no unit is available.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// heartbeatRequest is the body of POST /v1/heartbeat. Batch scopes the
// unit ID to the batch it belongs to.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	Unit   int    `json:"unit"`
	Batch  string `json:"batch,omitempty"`
}

// failRequest is the body of POST /v1/fail: a deterministic execution
// failure that should abort the whole batch (retrying deterministic work
// elsewhere would only fail again). Batch scopes the unit ID; the failure
// aborts that one batch, not the service.
type failRequest struct {
	Worker string `json:"worker"`
	Unit   int    `json:"unit"`
	Error  string `json:"error"`
	Batch  string `json:"batch,omitempty"`
}

// WorkerStatus is one fleet member's row in ServiceStatus: what it has
// done and when it was last heard from. A worker is Live while its silence is
// shorter than the lease TTL — the same threshold that would forfeit its
// unit.
type WorkerStatus struct {
	ID string `json:"id"`
	// UnitsDone / ItemsDone count the work this worker reported.
	UnitsDone int `json:"units_done"`
	ItemsDone int `json:"items_done"`
	// LastSeenMS is how long ago the worker last contacted the
	// coordinator (lease, heartbeat, result, or failure report).
	LastSeenMS int64 `json:"last_seen_ms"`
	Live       bool  `json:"live"`
	// CurrentUnit is the unit this worker holds a live lease on, absent
	// when it holds none.
	CurrentUnit *int `json:"current_unit,omitempty"`
}

// UnitStatus is one in-flight unit's row in ServiceStatus.
type UnitStatus struct {
	// Batch is the unit's batch ID; ID is the unit's index within it.
	Batch  string `json:"batch"`
	ID     int    `json:"id"`
	Worker string `json:"worker"`
	// Items is the number of input items the unit covers.
	Items int `json:"items"`
	// LeaseAgeMS is how long the current lease has been outstanding
	// (across renewals — heartbeats extend the deadline, not this age).
	LeaseAgeMS int64 `json:"lease_age_ms"`
	// Straggler flags a unit whose lease age exceeds twice the mean
	// completed-unit execution time, once at least stragglerMinSamples
	// units have completed — the units to watch (or the workers to
	// restart) when a sweep's tail drags.
	Straggler bool `json:"straggler,omitempty"`
}
