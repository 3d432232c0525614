// Package dist distributes a sweep across processes and machines: a
// coordinator splits each ordered batch into contiguous work units (via
// sweep.Shards, so unit boundaries follow the same input-ordered shard
// geometry every ordered reduction in this repository relies on), leases
// units to workers over a small HTTP+JSON protocol, and reassembles the
// workers' NDJSON result lines in input order — so distributed output is
// byte-identical to the sequential run, the repository's core invariant
// extended across process boundaries.
//
// There is one coordinator, Service: a FIFO queue of batches multiplexed
// onto one worker fleet and journaled in a result store
// (internal/dist/store). It runs in two shapes. Long-lived over a
// content-addressed store directory (store.Open), batches arrive over
// HTTP, identical resubmissions and overlapping batches are served from
// disk with zero re-execution, and a restarted service resumes every
// stored batch (Restore). As a one-batch run (one-shot `sweepd serve`),
// the store is a single checkpoint journal (store.OpenJournal), the
// caller submits its batch in-process, reads it back through Results,
// and cancels the service context once the batch is terminal — leases
// then answer done and the fleet exits.
//
// The worker protocol is four POST endpoints plus a status probe, all
// JSON except the result body, which is raw NDJSON (the same frame
// cmd/scenario -stream emits). Units carry the ID of the batch they
// belong to, and workers echo it back:
//
//	POST /v1/lease      {"worker":ID}                    -> {"done":bool,"unit":{...,"batch":B},"lease_ttl_ms":N,"retry_after_ms":N}
//	POST /v1/heartbeat  {"worker":ID,"unit":N,"batch":B} -> {"ok":true} | 409 {"error":"lease lost"}
//	POST /v1/result?worker=ID&unit=N&batch=B&exec_ms=T  <NDJSON>  -> {"accepted":bool}
//	POST /v1/fail       {"worker":ID,"unit":N,"batch":B,"error":S} -> {"ok":true}
//	GET  /v1/status                                      -> ServiceStatus (queue, per-batch progress, throughput, ETA, per-worker liveness, in-flight units)
//	GET  /metrics                                        -> Prometheus text exposition of the dist_* families
//
// plus the batch lifecycle endpoints:
//
//	POST   /v1/batches              {"kind":K,"payload":P} -> 201 BatchStatus (200 on idempotent resubmit)
//	GET    /v1/batches              -> [BatchStatus] in submission order
//	GET    /v1/batches/{id}         -> BatchStatus
//	DELETE /v1/batches/{id}         -> BatchStatus (cancelled)
//	GET    /v1/batches/{id}/results -> input-ordered NDJSON stream, live or from the store
//
// docs/wire-protocol.md is the generated, example-by-example
// specification (captured from these handlers by internal/docs);
// docs/operations.md is the operator runbook.
//
// The worker's optional exec_ms on /v1/result reports the unit's measured
// execution time; the service falls back to lease age when it is absent,
// so old workers interoperate. The status probe and the metrics endpoint
// sit behind the same handler (and therefore the same RequireToken gate)
// as the work protocol. Request bodies are capped and answered 413 beyond
// the cap.
//
// Liveness is lease-based: a worker holds a unit for LeaseTTL and extends
// it by heartbeating; when a worker dies mid-lease the lease expires and
// the next lease request hands the unit to another worker. Results are
// idempotent per item index — a re-leased unit reported by two workers
// stores each line once (first arrival wins; the lines are byte-identical
// anyway, because the work is deterministic) — so late results from a
// presumed-dead worker are accepted, never duplicated. A deterministic
// unit failure (POST /v1/fail) fails its batch; so does a store that
// cannot record a result line, which is still answered 2xx so the worker
// leases on instead of exiting and draining the fleet.
//
// Every completed line is journaled before it is streamable. Store
// journals are ordinary checkpoint journals (internal/dist/journal),
// readable by `sweepd journal` and adoptable in both directions
// (hash-verified), and a resumed batch never re-leases a unit whose
// whole range is already journaled.
//
// Payload kinds are not this package's business: a Service admits any
// work.Batch (its range marshalling is the unit payload, its content
// hash the batch identity), and RegistryExecutor resolves units back into
// runnable batches through the work registry — adding a workload kind
// requires no change here. RequireToken optionally gates the protocol
// behind a shared secret for services listening beyond one trusted host.
package dist
