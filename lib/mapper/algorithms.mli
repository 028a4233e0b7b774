(** The three mapping flows compared in the paper, end to end.

    Each flow takes an arbitrary {!Logic.Network.t}, normalises it
    (structural hashing), decomposes it to 2-input AND/OR + inverters,
    bubble-pushes it into unate form, and maps it:

    - {!domino_map}: the bulk-CMOS baseline — PBE-oblivious DP mapping,
      then p-discharge transistors inserted by post-processing;
    - {!rs_map}: baseline mapping, series stacks reordered toward ground,
      then discharge insertion ([Rearrange_Stacks_Map], Table I);
    - {!soi_domino_map}: the paper's algorithm — discharge transistors
      participate in the cost during mapping (Tables II-IV). *)

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
}

val run :
  ?memo:Memo.t ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?both_orders:bool ->
  ?grounded_at_foot:bool ->
  ?pareto_width:int ->
  ?extract:bool ->
  ?rewrite:int ->
  flow ->
  Logic.Network.t ->
  result
(** [run flow net] executes the complete flow with the paper's defaults
    ([w_max] 5, [h_max] 8, area cost).  [memo] threads a structural
    cache into {!Engine.map} (see {!Memo} for the transparency
    guarantee).  [rewrite] (default 0 = off) enables the choice-aware
    rewriting front end with that many variants: the flow maps the
    original and up to [rewrite] algebraic restructurings
    ({!Restructure.map_best}) and keeps the cheapest circuit under the
    flow's cost model; ties keep the original. *)

val run_outcome :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?on_exhaust:[ `Fail | `Degrade ] ->
  ?cost:Cost.model ->
  ?w_max:int ->
  ?h_max:int ->
  ?both_orders:bool ->
  ?grounded_at_foot:bool ->
  ?pareto_width:int ->
  ?extract:bool ->
  ?rewrite:int ->
  flow ->
  Logic.Network.t ->
  result Resilience.Outcome.t
(** {!run} under a resource budget.  When the DP sweep exhausts the
    budget, [`Degrade] (default) reruns it as {!Engine.map_greedy} —
    the result is flagged [Degraded] but is still a complete, verified
    mapping with the flow's postprocess applied — while [`Fail] returns
    [Failed].  Never raises {!Resilience.Budget.Exhausted}. *)

val domino_map : ?cost:Cost.model -> ?w_max:int -> ?h_max:int -> Logic.Network.t -> result
val rs_map : ?cost:Cost.model -> ?w_max:int -> ?h_max:int -> Logic.Network.t -> result
val soi_domino_map :
  ?cost:Cost.model -> ?w_max:int -> ?h_max:int -> Logic.Network.t -> result

val options_of :
  cost:Cost.model ->
  w_max:int ->
  h_max:int ->
  both_orders:bool ->
  grounded_at_foot:bool ->
  pareto_width:int ->
  flow ->
  Engine.options
(** The engine options a flow runs under ([Bulk] style for the two
    baselines, [Soi] for the paper's flow).  Exposed so out-of-band
    passes over the same mapping — the exact-optimality certifier, the
    prune CLI — can reconstruct exactly what {!run} handed the engine. *)

val postprocess : flow -> Domino.Circuit.t -> Domino.Circuit.t
(** The flow-specific post-mapping pass {!run} applies (discharge
    insertion for [Domino_map], stack rearrangement for the other two).
    Exposed so out-of-band mappings of the same engine output — the
    service's incremental-remap op — can emit exactly the circuit the
    flow would. *)

val finish :
  flow -> Unate.Unetwork.t -> Domino.Circuit.t -> Engine.stats -> result
(** [finish flow u circuit stats] packages an engine mapping of [u] the
    way {!run} does: the flow's {!postprocess}, then the counts.  Exposed
    so out-of-band mappings of [u] — the incremental remap of the CLI and
    of the daemon — emit exactly the result the flow would. *)

val prepare : ?extract:bool -> Logic.Network.t -> Unate.Unetwork.t
(** [prepare net] is the shared front end: strash, optional shared-divisor
    extraction ({!Logic.Extract}), decompose to 2-input AND/OR,
    bubble-push to unate form. *)
