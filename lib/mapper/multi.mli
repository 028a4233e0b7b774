(** Multi-objective mapping sweeps.

    The paper evaluates its algorithm under several cost functions (area,
    clock-weighted, depth).  This helper runs a whole portfolio of
    objectives on one circuit and reports the Pareto-efficient subset over
    (total transistors, domino levels, clock-connected transistors) — the
    view a designer choosing an operating point actually wants. *)

type point = {
  label : string;  (** objective name *)
  cost : Cost.model;  (** the model that produced it *)
  counts : Domino.Circuit.counts;
  delay : float;  (** first-order critical delay *)
  efficient : bool;  (** on the (t_total, levels, t_clock) Pareto front *)
}

val default_portfolio : (string * Cost.model) list
(** Area, clock-weighted k=2 and k=4, depth+discharge. *)

val sweep :
  ?memo:Memo.t ->
  ?portfolio:(string * Cost.model) list ->
  ?w_max:int ->
  ?h_max:int ->
  ?rewrite:int ->
  Logic.Network.t ->
  point list
(** [sweep net] prepares [net] once, maps it with
    {!Algorithms.Soi_domino_map} under every objective in the portfolio
    and marks Pareto efficiency.  The
    portfolio shares one structural memo table — a fresh one per sweep
    unless [memo] supplies a warm one (e.g. [soimap --cache]).
    [rewrite] (default 0) turns on the rewriting front end per
    objective, exactly as {!Algorithms.run}; every objective prices the
    same choice set under its own model, so different objectives may
    legitimately pick different restructurings. *)

val render : point list -> string
(** Plain-text table of the sweep. *)
