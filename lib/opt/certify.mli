(** Per-cone exact-optimality certification of a DP mapping.

    [certify ~options u] reruns the DP ({!Mapper.Engine.map_with_gates}),
    decomposes the network into cones ({!Instance}), and solves every
    cone that fits the size cap with an exact backend under a
    deterministic expansion budget.  Each cone gets a certificate:

    - [Proved]: the exact optimum equals the DP's cost key — the paper's
      optimality claim holds on this cone;
    - [Gap]: the search completed and found a strictly cheaper
      implementation — a proven DP suboptimality (expected for depth
      cost models and for [pareto_width = 1] under Soi rules, where the
      scalar slot-DP provably loses frontier diversity);
    - [Bounded]: the budget tripped first; only [lower <= optimum <= dp]
      is certified — never a wrong "optimal" verdict;
    - [Skipped]: the cone exceeded the size cap (counted, never silent).

    Certification is budgeted in expansions, not wall-clock, so the
    verdicts are bit-identical across machines and worker counts.
    Structurally identical cones (one {!Mapper.Memo.classes} class:
    same operators, fanin order and boundary levels, whatever signals
    drive the leaves) are solved once and share their verdict. *)

type status =
  | Proved of { cost : int }
  | Gap of { dp : int; exact : int }
  | Bounded of { dp : int; lower : int }
  | Skipped of { reason : string }

type cert = {
  root : int;  (** unate node id of the cone's boundary *)
  outputs : string list;  (** primary outputs driven directly by it *)
  size : int;
  n_leaves : int;
  status : status;
  backend : string;
  expansions : int;
}

type summary = {
  source : string;
  backend_name : string;
  certs : cert list;  (** ascending root id *)
  cones : int;  (** every cone, including the skipped ones *)
  certified : int;
      (** cones a backend actually examined: [proved + gaps + bounded].
          Strictly less than [cones] whenever the size cap skipped a
          cone, so "all cones proved" claims must compare [proved]
          against [certified], never against [cones]. *)
  proved : int;
  gaps : int;
  bounded : int;
  skipped : int;
  trivial_outputs : int;
      (** primary outputs bound to literals/constants — no cone, nothing
          to certify, counted for the no-silent-skips ledger *)
  expansions : int;
      (** summed search work; a shape-dedup hit is a lookup and charges
          zero (its cert records [expansions = 0]) *)
}

val default_max_size : int
(** Cone interior-size cap (24). *)

val default_max_expansions : int
(** Per-cone expansion budget (200_000). *)

val certify :
  ?backend:Backend.t ->
  ?max_size:int ->
  ?max_expansions:int ->
  ?memo:Mapper.Memo.t ->
  ?memo_salt:int ->
  options:Mapper.Engine.options ->
  Unate.Unetwork.t ->
  summary
(** Certify every cone of [u] under [options].  [backend] defaults to
    {!Bb.backend}; [memo] is threaded into the internal DP rerun (a
    fuzz run's per-run table makes that rerun a pure cache hit).
    [memo_salt] (default 0) must match the salt the cached entries were
    written under — {!Mapper.Restructure.salt_of} when certifying the
    network a rewrite portfolio chose.

    @raise Failure if a backend returns a verdict that contradicts the
    DP (exact cost above the DP's, or a certified lower bound above an
    achievable DP answer) — that is an internal soundness bug, never a
    mapping property. *)

val status_line : status -> string
(** One-line rendering of a single certificate status
    (["PROVED cost=9"], ["GAP dp=8 exact=7"], ...). *)

val render : summary -> string
(** Deterministic multi-line rendering (the [soimap --certify] output
    and the golden-corpus pin):
    a header with the per-status totals, then one line per cone. *)
