(** The three mapping flows compared in the paper, end to end.

    Each flow takes an arbitrary {!Logic.Network.t}, normalises it
    (structural hashing), decomposes it to 2-input AND/OR + inverters,
    bubble-pushes it into unate form, and maps it:

    - {!domino_map}: the bulk-CMOS baseline — PBE-oblivious DP mapping,
      then p-discharge transistors inserted by post-processing;
    - {!rs_map}: baseline mapping, series stacks reordered toward ground,
      then discharge insertion ([Rearrange_Stacks_Map], Table I);
    - {!soi_domino_map}: the paper's algorithm — discharge transistors
      participate in the cost during mapping (Tables II-IV).

    This module is the pipeline driver: [soimap], the daemon, the paper
    tables and the golden corpus all build [prepare → map | remap →
    postprocess] through it, under the defaults of
    {!Engine.default_options}.  Surfaces that map one network several
    times (the tables' flows per row, the objective sweep, a remap
    loop) prepare it once and call {!map_outcome} or {!remap} on the
    result. *)

type flow =
  | Domino_map
  | Rs_map
  | Soi_domino_map

val flow_name : flow -> string
(** Printable name, matching the paper's. *)

type result = {
  circuit : Domino.Circuit.t;
  counts : Domino.Circuit.counts;
  unate : Unate.Unetwork.t;
      (** the mapper input, for equivalence checks.  Always the
          {e original} unate network, even under [rewrite]: checking the
          circuit against it verifies the rewriting layer end to end *)
  mapped : Unate.Unetwork.t;
      (** the network the engine mapped: the rewrite portfolio's chosen
          variant under [rewrite], otherwise [unate] itself.  Per-cone
          analyses of the DP answer (the optimality certifier) must run
          on this network *)
  stats : Engine.stats;
  rewrite : Restructure.info option;
      (** the rewrite portfolio's accounting when [rewrite > 0]; [None]
          otherwise *)
  remap : Engine.remap_info option;
      (** the dirty/clean verdict of a full {!remap}; [None] otherwise *)
}

val prepare : Logic.Network.t -> Unate.Unetwork.t
(** [prepare net] is the shared front end: strash, decompose to 2-input
    AND/OR, bubble-push to unate form. *)

val options_of :
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?both_orders:bool ->
  ?grounded_at_foot:bool ->
  ?pareto_width:int ->
  flow ->
  Engine.options
(** The engine options a flow runs under ([Bulk] style for the two
    baselines, [Soi] for the paper's flow).  Every omitted field is
    {!Engine.default_options}'s — the one place the flow defaults live
    ([w_max] 5, [h_max] 8, area cost, both series orders, grounded foot,
    one tuple per slot).  Exposed so out-of-band passes over the same
    mapping — the exact-optimality certifier, the gap table — can
    reconstruct exactly what the driver handed the engine. *)

val map_outcome :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?on_exhaust:[ `Fail | `Degrade ] ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?rewrite:int ->
  flow ->
  Unate.Unetwork.t ->
  result Resilience.Outcome.t
(** The pipeline's one mapping body: [map_outcome flow u] maps the
    prepared network [u] through [flow] — the engine under
    {!options_of}, then the flow's {!postprocess} and the counts.
    [memo] threads a structural cache into {!Engine.map} (see {!Memo}
    for the transparency guarantee).  [rewrite] (default 0 = off)
    enables the choice-aware rewriting front end with that many
    variants: the flow maps the original and up to [rewrite] algebraic
    restructurings ({!Restructure.map_best_outcome}) and keeps the
    cheapest circuit under the flow's cost model; ties keep the
    original.  When the DP sweep exhausts [budget] (default
    unlimited), [`Degrade] (default) reruns it as {!Engine.map_greedy}
    — the result is flagged [Degraded] but is still a complete,
    verified mapping with the flow's postprocess applied — while
    [`Fail] returns [Failed].  Never raises
    {!Resilience.Budget.Exhausted}. *)

val map :
  ?memo:Memo.t ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?rewrite:int ->
  flow ->
  Unate.Unetwork.t ->
  result
(** {!map_outcome} under an unlimited budget, which never trips. *)

val run_outcome :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?on_exhaust:[ `Fail | `Degrade ] ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?rewrite:int ->
  flow ->
  Logic.Network.t ->
  result Resilience.Outcome.t
(** [run_outcome flow net] is {!prepare} followed by {!map_outcome}. *)

val run :
  ?memo:Memo.t ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?rewrite:int ->
  flow ->
  Logic.Network.t ->
  result
(** [run flow net] executes the complete flow with the paper's defaults:
    {!prepare}, then {!map}. *)

val domino_map : ?cost:Cost.model -> ?w_max:int -> ?h_max:int -> Logic.Network.t -> result
val rs_map : ?cost:Cost.model -> ?w_max:int -> ?h_max:int -> Logic.Network.t -> result
val soi_domino_map :
  ?cost:Cost.model -> ?w_max:int -> ?h_max:int -> Logic.Network.t -> result

val postprocess : flow -> Domino.Circuit.t -> Domino.Circuit.t
(** The flow-specific post-mapping pass the driver applies (discharge
    insertion for [Domino_map], stack rearrangement for the other
    two). *)

(** {2 Incremental remapping}

    The driver's view of {!Engine.remap_init} / {!Engine.remap}: a
    {!base} is a prepared pre-edit network under a flow, and {!remap}
    maps prepared edits of it against its warm state.  Memoization is
    exactly transparent, so every remap emits the circuit a cold
    {!map_outcome} of the edit would. *)

type base

val base :
  ?memo:Memo.t ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  flow ->
  Unate.Unetwork.t ->
  base
(** [base flow u0] is the remap baseline of the prepared network [u0]
    under [flow]'s options.  It maps nothing yet: the first {!remap}
    against it maps [u0] cold through [memo] (fresh when not supplied),
    the only store into that table. *)

val built : base -> bool
(** Whether a {!remap} has mapped the base.  A base whose cold map
    tripped its budget stays unbuilt, and the next remap tries again. *)

val remap :
  ?budget:Resilience.Budget.t ->
  ?on_exhaust:[ `Fail | `Degrade ] ->
  base ->
  Unate.Unetwork.t ->
  result Resilience.Outcome.t
(** [remap b u] maps the prepared edit [u] against [b]'s warm state,
    building that state first when [b] is unbuilt; [budget] bounds both
    maps.  The result is byte-identical to a cold {!map_outcome} of [u]
    under the same flow, and its [remap] field carries the
    dirty/clean verdict.  A trip in either map follows [on_exhaust]
    exactly as {!map_outcome} does: [`Degrade] (default) maps [u] with
    the greedy rung ([Degraded], [remap = None]), [`Fail] returns
    [Failed].  Either way the base keeps the state it had, so the next
    remap against it is again a cold map's twin. *)
