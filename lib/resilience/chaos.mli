(** Seeded chaos injection for the mapping/verification pipeline.

    A chaos value decides, per (site, salt), whether a fault fires at
    that point and which kind: [Raise] (an exception the surrounding
    stage must contain), [Delay] (a short sleep, exercising timeout and
    pool-starvation paths), or [Exhaust] (a synthetic
    {!Budget.Exhausted}, exercising the degradation ladder).

    Decisions are a pure hash of (seed, site, salt) — no hidden counter
    — so a chaos-wrapped run is bit-identical at any worker count: use
    a stable per-task index as the salt.  The per-instance fault counter
    exists only for end-of-run accounting against the caller's report. *)

type fault = Raise | Delay | Exhaust

exception Injected of string * fault
(** [(site, fault)] thrown by a [Raise] fault at [site]. *)

type t

val disabled : t
(** Never injects; every point is a no-op. *)

val make : ?rate:float -> ?delay:float -> seed:int -> unit -> t
(** [make ~seed ()] builds an injector firing at probability [rate]
    (default 0.25) per point; [Delay] faults sleep [delay] seconds
    (default 2ms).  @raise Invalid_argument on a rate outside [0,1] or
    a negative delay. *)

val enabled : t -> bool

val decide : t -> site:string -> salt:int -> fault option
(** The pure decision: what {!inject} would fire at this point.  Safe
    to re-evaluate for accounting — it mutates nothing. *)

val inject : t -> ?note:(string -> fault -> unit) -> site:string -> salt:int -> unit -> unit
(** Maybe fire a fault: bumps the counter, calls [note], then sleeps
    ([Delay]), raises {!Injected} ([Raise]) or raises
    {!Budget.Exhausted} ([Exhaust]). *)

val total_injected : t -> int
(** Faults fired so far, all kinds, all domains. *)

(** {1 Pre-bound injection points} *)

type point = site:string -> unit
(** An injector pre-bound to a chaos value, salt and note sink, so deep
    callees (the oracle stages) need only name their site. *)

val no_point : point

val point_for : t -> ?note:(string -> fault -> unit) -> salt:int -> unit -> point
