(** GC statistics as metric rows.

    A thin wrapper over [Gc.quick_stat] shaping the collector's
    counters into [(name, value)] pairs so the CLIs and the bench
    telemetry emit them uniformly next to the {!Metrics} snapshot.
    These are [Gc.quick_stat]'s numbers, which on OCaml 5.1 sum every
    domain — process totals; call it after the parallel work has
    quiesced.  For one request's share use {!snap}/{!delta}. *)

val pairs : unit -> (string * float) list
(** [gc.minor_words], [gc.promoted_words], [gc.major_words],
    [gc.minor_collections], [gc.major_collections], [gc.heap_words],
    [gc.top_heap_words], [gc.compactions] — in that order. *)

(** {1 Per-request deltas}

    For a long-running process, whole-process totals attribute nothing:
    the daemon wants to know what {e one request} allocated.  Take a
    {!snap} on the domain about to execute the request and a {!delta}
    on the same domain when it finishes.  The word counts come from
    [Gc.counters], which is per-domain (unlike [Gc.quick_stat]'s, which
    sum every domain on OCaml 5.1), so the difference is the executing
    domain's allocation even while other domains churn.  Collection
    counts are process-wide: a collection stops every domain. *)

type snap

val snap : unit -> snap
(** Snapshot the calling domain's word counters and the process's
    collection counts. *)

type delta = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
}

val delta : snap -> delta
(** [delta s] is the calling domain's allocation since [s] (clamped at
    zero — a domain-crossing misuse shows as 0, never as a negative
    total corrupting a counter). *)
