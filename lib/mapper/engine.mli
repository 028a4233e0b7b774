(** The dynamic-programming technology-mapping engine.

    Shared by the bulk baseline ([Domino_Map], after Zhao & Sapatnekar
    ICCAD'98) and the paper's [SOI_Domino_Map]; the two differ only in the
    series-composition rule and in the stack-ordering freedom, selected by
    {!style}.

    The engine processes the unate network in topological order.  Each
    node accumulates one best tuple per pull-down-network footprint
    [{W, H}] with [W <= w_max], [H <= h_max] (the paper uses 5 and 8), and
    additionally forms its [{1,1}] "gate" tuple by converting the cheapest
    configuration into a full domino gate (precharge, inverter, keeper,
    and a foot when primary inputs are present).  Multi-fanout nodes are
    mapping boundaries: their consumers may only use the formed gate, and
    the gate's cost is accounted once, globally.  Single-fanout children
    flow their cumulative cost through their parent's tuples exactly as in
    the paper's Figure 3 example.

    On gate formation, the PDN bottom is connected to the foot/ground
    path, so potential discharge points vanish and only committed
    p-discharge transistors are kept (set [grounded_at_foot = false] to
    study the pessimistic alternative — an ablation, not the paper's
    semantics). *)

type style =
  | Bulk  (** no PBE bookkeeping; fixed series order (fanin 0 on top) *)
  | Soi  (** paper rules: p_dis/par_b tracking and stack-order freedom *)

type options = {
  w_max : int;  (** maximum PDN width (paper: 5) *)
  h_max : int;  (** maximum PDN height (paper: 8) *)
  style : style;
  cost : Cost.model;
  both_orders : bool;
      (** Soi only: try both series orders and keep the better tuple
          (default); when false, use the paper's par_b/p_dis ordering
          heuristic alone *)
  grounded_at_foot : bool;
      (** treat a formed gate's PDN bottom as grounded (paper semantics;
          default true) *)
  pareto_width : int;
      (** tuples kept per [{W, H}] slot.  1 reproduces the paper (one best
          tuple, cost then p_dis tie-break); larger values keep a Pareto
          frontier over (cost, p_dis, par_b), trading mapping time for
          solution quality — an extension evaluated as an ablation *)
}

val default_options : options
(** [{w_max = 5; h_max = 8; style = Soi; cost = Cost.area;
     both_orders = true; grounded_at_foot = true; pareto_width = 1}]. *)

type stats = {
  nodes_processed : int;
  tuples_kept : int;
      (** tuples surviving in the final tables across all nodes (evicted
          or superseded insertions are not counted) *)
  combinations_tried : int;
  gates_formed : int;  (** gates materialised into the final circuit *)
}

val map :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?memo_salt:int ->
  options ->
  Unate.Unetwork.t ->
  Domino.Circuit.t * stats
(** [map options u] maps the unate network to a domino circuit.  The
    result is functionally equivalent to [u] (checked by the test-suite)
    and, for [Soi], already carries its p-discharge transistors.  For
    [Bulk] the circuit carries none; apply {!Postprocess.insert_discharges}
    to obtain a correct SOI implementation.
    Constant primary outputs (possible when the source network contains
    constant nets that fold through to an output) are tied to the rail:
    they appear as [Pdn.S_const] output bindings with no gate behind
    them.
    [budget] (default unlimited) bounds the DP sweep: every fanin-tuple
    combination charges the tuple allowance and the wall clock is
    checked cooperatively (per node and every 2048 combinations).
    [memo] supplies a structural cache ({!Memo}): a node whose exact key
    (operator plus its fanins' codes, under the same cost-model and
    options fingerprints) is already cached installs the cached table
    and skips its combination loop.  [memo_salt] (default 0) is folded
    into the memo key fingerprint; callers that map a {e transformed}
    view of the input — the rewriting front end ({!Restructure}) — pass
    a salt derived from the transformation so their entries never serve
    (or are served by) untransformed runs.  Memoization is exactly
    transparent —
    same circuit, same stats — except [combinations_tried], which counts
    only combinations actually executed (hits also skip the
    tuple-budget charge); [tuples_kept], [nodes_processed] and
    [gates_formed] are recomputed from the final tables and identical.
    @raise Resilience.Budget.Exhausted when the budget trips — use
    {!map_outcome} for the degrade-instead-of-raise policy.
    @raise Invalid_argument if [w_max < 2] or [h_max < 2]. *)

val map_with_gates :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?memo_salt:int ->
  options ->
  Unate.Unetwork.t ->
  Domino.Circuit.t * stats * (int -> Cost.value option)
(** {!map}, additionally returning a lookup over the formed gates of the
    completed sweep: for unate node [id], the gate's formation cost
    value (PDN tuple plus overhead and committed discharges, one level
    up — the [value] whose {!Cost.key} the engine minimised, and whose
    [depth] is the gate's domino level).  Defined for every mapping
    boundary (multi-fanout or output-driving node) of a completed
    sweep; [None] for interior nodes whose gate no consumer forced.
    This is the exact-optimality certifier's view of the DP answer
    ({!Opt.Certify}): per-cone, pre-postprocess. *)

val map_greedy : options -> Unate.Unetwork.t -> Domino.Circuit.t * stats
(** The degradation rung under {!map}: every node offers its consumers
    only its formed gate tuple (as if multi-fanout), so the sweep tries
    O(pareto_width²) combinations per node and is linear in the
    network.  The result is still functionally equivalent — it simply
    loses the cross-gate cost propagation, i.e. quality, not
    correctness.  Greedy sweeps bypass any {!Memo} table: the altered
    boundary rule makes their tables incomparable with full ones. *)

val map_outcome :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?memo_salt:int ->
  ?on_exhaust:[ `Fail | `Degrade ] ->
  options ->
  Unate.Unetwork.t ->
  (Domino.Circuit.t * stats) Resilience.Outcome.t
(** [map_outcome ~budget ~on_exhaust options u] is {!map} with the
    exhaustion policy made explicit: [`Degrade] (default) falls back to
    {!map_greedy} and flags the result [Degraded]; [`Fail] returns
    [Failed] with the tripped budget's reason.  Never raises
    [Exhausted]. *)

val guard :
  ?on_exhaust:[ `Fail | `Degrade ] ->
  options ->
  Unate.Unetwork.t ->
  (unit -> Domino.Circuit.t * stats) ->
  (Domino.Circuit.t * stats) Resilience.Outcome.t
(** [guard ~on_exhaust options u run] applies {!map_outcome}'s
    exhaustion policy to [run], a budgeted mapping of [u] under
    [options]: [Ok] of its answer, or when it raises
    {!Resilience.Budget.Exhausted}, the greedy rung's [Degraded]
    mapping of [u] ([`Degrade], default) or [Failed].  The pipeline
    driver maps incremental remaps through it, so a remap that trips
    its budget degrades exactly as a map does. *)

(** {2 Incremental remapping}

    A {!remap_state} wraps a warm {!Memo} table together with the
    {!Memo.fingerprint} of the last network mapped through it.  Because
    memoization is exactly transparent, {!remap} after a local edit is
    byte-identical to a cold {!map} of the edited network — the warm
    table merely lets every clean cone splice its cached frontier in
    and skip its combination loop, so only the dirty cones pay DP cost.
    The returned {!remap_info} reports the dirty/clean split (from the
    fingerprints) and the memo hit/miss counts of the run.

    Edits never write the warm table.  Each {!remap} maps through a
    fresh overlay ({!Memo.start}'s [under]/[prev]) that reads the warm
    table and the previous edit's overlay and keeps its own misses;
    the new overlay then replaces the old one.  A state therefore holds
    the base's entries (in the shared table) plus one network's
    working set, however many fresh edits it serves. *)

type remap_state

type remap_info = {
  dirty_cones : int;
      (** nodes of the edited network whose deep structural signature
          does not occur in the previous network (must recompute) *)
  clean_cones : int;  (** nodes whose entire input cone is unchanged *)
  memo_hits : int;  (** memoizable nodes spliced from the warm table *)
  memo_misses : int;  (** memoizable nodes recomputed (and stored) *)
}

val remap_init :
  ?budget:Resilience.Budget.t ->
  ?memo:Memo.t ->
  ?memo_salt:int ->
  options ->
  Unate.Unetwork.t ->
  remap_state * (Domino.Circuit.t * stats)
(** Cold-map [u] (through [memo], freshly created when not supplied)
    and capture the remap state.  This is the only call that stores
    into [memo].  [memo_salt] is retained for every subsequent
    {!remap}.
    @raise Resilience.Budget.Exhausted as {!map}. *)

val remap :
  ?budget:Resilience.Budget.t ->
  remap_state ->
  Unate.Unetwork.t ->
  Domino.Circuit.t * stats * remap_info
(** Map an edited network against the warm state.  The result (circuit
    and stats except [combinations_tried]) is identical to a cold
    {!map} with the same options; [combinations_tried] drops to the
    dirty cones' share.  Depth-objective cost models bypass the memo
    (see {!Memo}), so they remap correctly but without warm splicing.
    Updates the state's fingerprint to [u] and replaces its overlay.

    A network structurally identical to the previous one (exact: names,
    outputs, node array — re-parsed payloads qualify, the daemon's
    steady state) takes a whole-network fast path: the cached circuit
    is returned after one O(n) comparison, with every cone counted
    clean and zero memo traffic in the {!remap_info}.
    @raise Resilience.Budget.Exhausted as {!map}. *)

val overlay_entries : remap_state -> int
(** Entries in the state's overlay: the memo tables the last remapped
    network used that the shared table lacks (0 after {!remap_init}).
    Bounded by that network's node count. *)
