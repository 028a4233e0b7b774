(** Resource budgets for the worst-case-exponential pipeline stages.

    The DP mapper's tuple tables and the per-cone equivalence BDDs can
    blow up on adversarial nets.  A budget bounds that work with
    cooperative checkpoints: the heavy loops call {!charge_tuples} and
    {!check_deadline} at their own cadence, and a tripped budget
    surfaces as the typed {!Exhausted} exception, which callers turn
    into an {!Outcome.t} (fail hard, or degrade to a cheaper
    algorithm).

    Deadlines are anchored on the monotonic clock ({!Obs.Clock}):
    stepping the wall clock (NTP, a manual date change) never expires or
    extends a budget — only monotonic time elapsed since {!make} counts
    against the allowance.

    A budget value is meant to be used by one task at a time (each fuzz
    run builds its own); the shared {!unlimited} value never mutates and
    is safe to share across domains. *)

type reason =
  | Deadline of float  (** the wall-clock allowance that expired, seconds *)
  | Tuple_limit of int  (** the tuple-formation allowance that ran out *)
  | Bdd_node_limit of int  (** the BDD node allowance that ran out *)
  | Injected of string  (** chaos-injected exhaustion; names the site *)
  | Cache_invalid of string
      (** a persistent cache file could not be used (corrupt, truncated,
          wrong version); the pipeline degrades to a cold start *)

exception Exhausted of reason
(** Raised at a cooperative checkpoint when the budget is spent. *)

type t

val unlimited : t
(** The no-op budget: every check is a cheap field test. *)

val make : ?timeout:float -> ?max_tuples:int -> ?max_bdd_nodes:int -> unit -> t
(** [make ()] builds a budget; each limit is independent and optional.
    [timeout] is a relative allowance in seconds, anchored on the
    monotonic clock at the call.  [timeout:0.0] is legal and builds a
    pre-expired budget (the fuzzer's deterministic timeout path).
    @raise Invalid_argument on a negative or non-finite timeout or a
    non-positive cap. *)

val validate :
  ?timeout:float ->
  ?max_tuples:int ->
  ?max_bdd_nodes:int ->
  unit ->
  (unit, string) result
(** Flag-level validation shared by the CLI and the daemon's request
    parser: rejects a zero, negative or non-finite [timeout] and
    non-positive caps with a one-line message, so nonsensical limits
    fail fast instead of silently building an always-exhausted or
    unlimited budget.  Stricter than {!make} on purpose ([make] still
    accepts the deliberate [timeout:0.0]). *)

val is_unlimited : t -> bool

val max_bdd_nodes : t -> int option
(** The BDD node cap, for handing to {!Logic.Bdd.manager}. *)

val check_deadline : t -> unit
(** Checkpoint: raises [Exhausted (Deadline _)] past the cutoff. *)

val remaining_s : t -> float option
(** Monotonic seconds left before the deadline trips ([None] when the
    budget carries no timeout; negative once expired). *)

val charge_tuples : t -> int -> unit
(** [charge_tuples b n] spends [n] units of the tuple allowance; raises
    [Exhausted (Tuple_limit _)] once the cap is crossed. *)

val trip : reason -> 'a
(** Record the exhaustion in the flight recorder ({!Obs.Flight}, kind
    ["budget"]) and raise [Exhausted].  Every internal checkpoint
    funnels through it; external fault injectors (chaos) should too, so
    a post-incident dump explains every degraded outcome. *)

val reason_to_string : reason -> string
val pp_reason : Format.formatter -> reason -> unit
