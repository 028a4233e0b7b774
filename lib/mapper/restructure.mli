(** The choice-aware rewriting front end of the mapper.

    [map_best] sits between unate decomposition and the DP engine: it
    asks the rewriting layer ({!Rewrite.Choices}) for up to [limit]
    algebraic restructurings of the input, prices the original and
    every variant with the {e same} engine options and cost model, and
    keeps the cheapest mapped circuit.  {!Engine.map}'s circuit is
    final, so each candidate is priced as the flow would emit it.  Ties go to the
    original (then to the earliest variant), so enabling rewriting can
    never regress a mapping.

    All portfolio runs share one {!Memo} table under a salt derived
    from the rule-set fingerprint and [limit]: structurally identical
    cones across choices are solved once (the DP's per-cone choice
    enumeration), while the salt keeps the entries invisible to plain,
    non-rewritten runs — a persistent cache can serve both a [--rewrite]
    and a plain invocation of the same design without staleness.

    Budget policy: variant {e generation} degrades inside the rewriter
    (fewer choices, never an error); a budget trip while {e mapping} a
    variant abandons the remaining variants and keeps the best circuit
    found; a trip while mapping the original is the engine's own
    failure mode ([map_best] raises like {!Engine.map},
    [map_best_outcome] degrades like {!Engine.map_outcome}). *)

type info = {
  generated : int;  (** variants the rewriter produced *)
  tried : int;  (** candidates actually mapped (original included) *)
  chosen_site : int;  (** rewritten node id; [-1] for the original *)
  chosen_rule : string option;  (** [None] when the original won *)
  original_cost : int;  (** {!circuit_cost} of the unrewritten mapping *)
  cost : int;  (** {!circuit_cost} of the winner *)
  salt : int;  (** memo salt the portfolio ran under *)
}

type outcome = {
  circuit : Domino.Circuit.t;  (** the winner, as {!Engine.map} emits it *)
  stats : Engine.stats;  (** the winning run's engine stats *)
  chosen : Unate.Unetwork.t;  (** the network actually mapped *)
  info : info;
}

val circuit_cost : Cost.model -> Domino.Circuit.counts -> int
(** The scalar the portfolio minimises: the model's weights applied to
    a finished circuit —
    [regular*(plain transistors) + clocked*(precharge+foot) +
     discharge*T_disch + depth_factor*levels].  The whole-circuit
    analogue of the DP's {!Cost.key}. *)

val salt_of : limit:int -> int
(** The memo salt for a rewrite portfolio: {!Rewrite.Rules.fingerprint}
    mixed with [limit].  Exposed so cache tooling can reproduce it. *)

val map_best :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?limit:int ->
  Engine.options ->
  Unate.Unetwork.t ->
  outcome
(** [map_best options u] maps [u] and up to [limit] (default 8)
    rewritten variants and keeps the cheapest.
    @raise Resilience.Budget.Exhausted only if the budget trips while
    mapping the {e original} (variant failures degrade). *)

val map_best_outcome :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?on_exhaust:[ `Fail | `Degrade ] ->
  ?limit:int ->
  Engine.options ->
  Unate.Unetwork.t ->
  outcome Resilience.Outcome.t
(** {!map_best} with {!Engine.map_outcome}'s exhaustion policy for the
    original run; a degraded original skips the variants entirely (the
    budget is already spent). *)
