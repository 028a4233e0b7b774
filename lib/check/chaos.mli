(** End-to-end chaos drills for the fault-tolerance contracts.

    Everything here is seeded and deterministic in its injection
    decisions (see {!Resilience.Chaos}): the same seed fires the same
    faults at the same sites regardless of worker count, so the drills
    run identically in the test-suite and the CI chaos leg. *)

(** {1 Pool storm} *)

type storm_result = {
  storms : int;  (** chaos batches submitted to the pool *)
  propagated : int;
      (** storms whose injected fault re-raised at the submitting caller *)
  injected : int;  (** faults the injector fired, all kinds *)
  usable : bool;
      (** every post-storm verification batch computed correct results *)
}

val pool_storm :
  ?rounds:int -> jobs:int -> tasks:int -> seed:int -> unit -> storm_result
(** [pool_storm ~jobs ~tasks ~seed ()] runs [rounds] (default 4) batches
    of [tasks] tasks on a fresh [jobs]-worker pool, each task raising,
    sleeping, or exhausting per the seeded chaos decision, and after
    every storm runs a clean batch that must produce correct results.
    A correct pool propagates each storm's first fault to the caller
    without deadlocking or poisoning the workers: the caller checks
    [propagated = storms] (when the rate guarantees a fault per batch),
    [usable], and that the pool shut down cleanly (implicit — this
    function returning at all). *)

(** {1 Chaos-wrapped fuzzing} *)

val fuzz_storm :
  ?rate:float ->
  ?run_timeout:float ->
  seed:int ->
  budget:int ->
  unit ->
  Report.t * Resilience.Chaos.t
(** [fuzz_storm ~seed ~budget ()] runs the differential fuzzer with
    fault injection at rate [rate] (default 0.25) wrapping every run and
    oracle stage.  Returns the report and the injector for
    {!verify_accounting}. *)

val verify_accounting :
  Resilience.Chaos.t -> Report.t -> (int, string) result
(** [verify_accounting chaos report] cross-checks the injector's fault
    counter against the report's merged chaos counts.  [Ok n] when every
    one of the [n] reported faults is accounted for ([n] = injector
    total on a complete report); [Error msg] on a mismatch.  Reports
    stopped early discard outcomes past the stop point, so their counts
    legitimately undercount: accounting is then unverifiable and [Ok]
    carries the merged count as-is. *)

(** {1 Degradation sweep} *)

type sweep_row = {
  bench : string;
  outcome : string;  (** {!Resilience.Outcome.label}: ok/degraded/failed *)
  equivalent : bool;  (** the mapped (possibly degraded) circuit verified *)
}

val degradation_sweep : ?max_tuples:int -> ?vectors:int -> unit -> sweep_row list
(** [degradation_sweep ()] maps every suite benchmark under a tiny tuple
    budget (default 500) with the [`Degrade] policy and
    simulation-verifies each resulting circuit against its source.  The
    acceptance bar: no row is ["failed"], every row is [equivalent]. *)

(** {1 Daemon storm} *)

type daemon_storm_result = {
  frames : int;  (** frames sent that expect a response (hostile + legit) *)
  aborted : int;  (** mid-frame disconnects (no response expected) *)
  d_ok : int;  (** responses per status, as observed by the clients *)
  d_degraded : int;
  d_failed : int;
  d_rejected : int;
  d_errors : int;
  ledger : (string * int) list;  (** the daemon's closing [stats] ledger *)
  ledger_ok : bool;
      (** [requests = ok + degraded + failed + rejected] in the ledger *)
  alive : bool;  (** the daemon still answers [ping] after the storm *)
}

val daemon_storm :
  ?addr:Service.Protocol.addr ->
  ?workers:int ->
  ?rounds:int ->
  seed:int ->
  unit ->
  daemon_storm_result
(** [daemon_storm ~seed ()] storms a soimapd daemon with [workers]
    (default 4) concurrent hostile clients, each performing [rounds]
    (default 12) seeded actions: malformed frames, requests with invalid
    budget limits, oversized payloads, mid-frame disconnects,
    budget-tripping cones under both exhaustion policies, unparsable
    payloads, remaps (against five suite bases, more than the daemon's
    four baseline slots, so bases are evicted and rebuilt; against an
    unparsable base; and against a base whose build trips its budget
    under [on_exhaust = fail]) and legitimate maps — one connection per
    action, so the accept path is churned too.

    Without [addr], a daemon is started in-process on a private Unix
    socket with a deliberately tight config (queue 8, 64 KiB frames)
    and drained at the end; with [addr] (the CI soak leg), an external
    daemon is stormed over the wire only.  The acceptance bar: every
    expected response arrived and carried a known status
    ([frames = d_ok + d_degraded + d_failed + d_rejected + d_errors]),
    [ledger_ok], and [alive]. *)
