(* The structured result of a budgeted pipeline stage: the degradation
   ladder's rungs.  [Ok] is the full algorithm; [Degraded] carries the
   fallback's result plus a record of every rung that was skipped and
   why; [Failed] is the hard stop under an [`Fail] exhaustion policy. *)

type degradation = {
  stage : string;  (* "mapper", "equiv", ... *)
  reason : Budget.reason;  (* the budget that tripped *)
  fallback : string;  (* what ran instead: "greedy", "sampled(4096)" *)
}

type 'a t =
  | Ok of 'a
  | Degraded of 'a * degradation list
  | Failed of Budget.reason

let value = function Ok v | Degraded (v, _) -> Some v | Failed _ -> None

let degradations = function
  | Ok _ | Failed _ -> []
  | Degraded (_, ds) -> ds

let label = function
  | Ok _ -> "ok"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

let describe_degradation d =
  Printf.sprintf "%s: %s -> %s" d.stage
    (Budget.reason_to_string d.reason)
    d.fallback

let describe = function
  | Ok _ -> "ok"
  | Degraded (_, ds) ->
      Printf.sprintf "degraded(%s)"
        (String.concat "; " (List.map describe_degradation ds))
  | Failed r -> Printf.sprintf "failed(%s)" (Budget.reason_to_string r)

let map f = function
  | Ok v -> Ok (f v)
  | Degraded (v, ds) -> Degraded (f v, ds)
  | Failed r -> Failed r
