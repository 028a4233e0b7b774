(** The structured result of a budgeted pipeline stage.

    Every heavy path that accepts a {!Budget.t} reports one of three
    rungs of the degradation ladder: the full algorithm completed
    ([Ok]), a cheaper fallback ran and its result is flagged with the
    budget that tripped ([Degraded]), or the stage stopped hard under a
    fail-on-exhaust policy ([Failed]). *)

type degradation = {
  stage : string;  (** which stage degraded: "mapper", "equiv", ... *)
  reason : Budget.reason;  (** the budget that tripped *)
  fallback : string;  (** what ran instead: "greedy", "sampled(4096)" *)
}

type 'a t =
  | Ok of 'a
  | Degraded of 'a * degradation list
  | Failed of Budget.reason

val value : 'a t -> 'a option
(** The carried result, if any rung produced one. *)

val degradations : 'a t -> degradation list

val label : 'a t -> string
(** ["ok"], ["degraded"] or ["failed"]. *)

val describe : 'a t -> string
(** One-line rendering, e.g.
    ["degraded(mapper: tuple-limit(5000) -> greedy)"]. *)

val describe_degradation : degradation -> string

val map : ('a -> 'b) -> 'a t -> 'b t
