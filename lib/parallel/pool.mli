(** A small fork-join domain pool on the OCaml 5 runtime.

    The pool owns [jobs - 1] long-lived worker domains; the domain that
    submits a many-task batch always participates in executing it
    (caller helping), so a pool of size 1 spawns no domains at all and
    [map]/[map_list] degenerate to the plain serial [Array.map]/
    [List.map] code path.  A one-task batch is handed to a sleeping
    worker when there is one, and its submitter waits without holding
    its domain: systhreads that share the submitter's domain (the
    daemon's dispatchers and connection readers) keep running while
    the task runs elsewhere.  With no sleeping worker it runs inline.

    Scheduling is work-stealing over a shared run queue: a submitted
    batch is published once, and every idle domain — the submitter
    included — steals the next unclaimed index with a single atomic
    fetch-and-add.  Results land in a slot per input index, so the
    output order is the input order and the result of a [map] is
    bit-identical regardless of pool size or interleaving, provided the
    mapped function is pure (this is the property the [-j 1] vs [-j N]
    determinism tests pin down).

    Nested submissions are legal and deadlock-free: a task running on a
    worker may itself call [map] — the worker then helps execute the
    inner batch and only blocks once every inner index is claimed by
    some live domain.  This is what lets the fuzzer parallelise over
    runs while each run's per-cone BDD equivalence check parallelises
    over output cones on the same pool.

    Exceptions raised by tasks are caught by the pool core, never by a
    worker's top loop, so a raising task cannot kill a worker domain,
    poison the pool, or leave sibling waiters blocked.  The first
    failure cancels the batch: indices not yet started are claimed but
    skipped (the fork-join accounting still settles every index, so
    waiters always wake), and the recorded exception — the lowest index
    among the tasks that actually ran, which is best-effort lowest
    overall once cancellation is racing — is re-raised in the submitter
    with its backtrace.  The pool stays fully usable afterwards. *)

type t

val create : jobs:int -> t
(** [create ~jobs] builds a pool that executes batches on [jobs]
    domains ([jobs - 1] spawned workers plus the submitter).
    @raise Invalid_argument when [jobs < 1]. *)

val jobs : t -> int
(** Number of domains that execute a batch, submitter included. *)

(** {1 Scheduling statistics}

    Always-on, cumulative over the pool's lifetime; the cost is a few
    atomic adds per batch participation, never per task.  All of these
    describe the {e schedule}: apart from [tasks_run] and [batches]
    (which are work-derived), their values legitimately vary with the
    pool size, machine load, and interleaving — deterministic
    comparisons must not include them.  With {!Obs.Metrics} collection
    enabled, the same quantities are also mirrored into the process
    metrics registry under [pool.*] (registered unstable), and with
    {!Obs.Trace} enabled each batch participation appears as a
    [pool.drain] span on its domain's track. *)

type stats = {
  tasks_run : int;
      (** tasks actually executed (indices claimed-but-skipped by a
          cancelled batch are not counted) *)
  steals : int;
      (** tasks executed by a domain other than the batch's submitter *)
  batches : int;  (** [map]/[map_list] calls, serial fast path included *)
  peak_queue_depth : int;
      (** maximum number of batches simultaneously on the run queue *)
  busy_ns : int64;
      (** summed wall-clock nanoseconds domains spent inside batches
          (can exceed elapsed time: domains run concurrently) *)
}

val stats : t -> stats
(** A consistent-enough snapshot of the counters above: each field is
    read atomically, the record is not (exact totals require the pool
    to be quiescent). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f arr] is [Array.map f arr] with the applications spread
    across the pool.  Result order is input order.  Only
    [Domain.self ()] inside [f] tells a handed-off task from an inline
    one: its exception re-raises in the submitter with its backtrace,
    it is accounted in {!stats} like any batch (a steal, as it runs off
    the submitter's domain), and it may itself call [map]. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list pool f l] is [List.map f l] via {!map}. *)

val shutdown : t -> unit
(** Terminates the worker domains.  Idempotent; the pool must not be
    used afterwards.  Pools are also safe to abandon to the GC — the
    workers are daemon-like and die with the process — but tests that
    create many pools should shut them down. *)

(** {1 The process-default pool}

    Library entry points ({!Mapper.Multi.sweep}, the experiment tables,
    {!Logic.Equiv.networks_per_output}, {!Check.Fuzz.run}) draw their
    parallelism from one shared default pool so a single [--jobs N]
    flag controls the whole pipeline.  It starts at 1 (serial): callers
    that never opt in see the exact pre-pool behaviour. *)

val set_jobs : int -> unit
(** [set_jobs n] resizes the default pool to [n] domains ([n >= 1]).
    [set_jobs 0] sizes it to {!Domain.recommended_domain_count}.  An
    existing default pool of a different size is shut down first; do
    not call concurrently with work running on the default pool. *)

val get_jobs : unit -> int
(** Current size of the default pool. *)

val default : unit -> t
(** The default pool, created lazily at the size of the last
    {!set_jobs} call (initially 1). *)

val map_default : ('a -> 'b) -> 'a array -> 'b array
(** {!map} on the default pool. *)

val map_list_default : ('a -> 'b) -> 'a list -> 'b list
(** {!map_list} on the default pool. *)
