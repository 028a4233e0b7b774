type result = {
  actual : Pdn.path list;
  contingent : Pdn.path list;
  par_b : bool;
}

let analyze p =
  (* [prefix] is the reversed path from the root to the current subtree. *)
  let rec go prefix t =
    match t with
    | Pdn.Leaf _ -> { actual = []; contingent = []; par_b = false }
    | Pdn.Parallel (a, b) ->
        let ra = go (0 :: prefix) a and rb = go (1 :: prefix) b in
        {
          actual = ra.actual @ rb.actual;
          contingent = ra.contingent @ rb.contingent;
          par_b = true;
        }
    | Pdn.Series (top, bottom) ->
        let junction = List.rev prefix in
        let rt = go (0 :: prefix) top and rb = go (1 :: prefix) bottom in
        if rt.par_b then
          (* The junction is the bottom of a parallel stack and can never
             be ground; it and top's contingent points are committed. *)
          {
            actual = rt.actual @ rt.contingent @ (junction :: rb.actual);
            contingent = rb.contingent;
            par_b = rb.par_b;
          }
        else
          (* Plain series junction: discharge only needed if the whole
             structure's bottom floats away from ground. *)
          {
            actual = rt.actual @ rb.actual;
            contingent = rt.contingent @ (junction :: rb.contingent);
            par_b = rb.par_b;
          }
  in
  let r = go [] p in
  {
    actual = List.sort_uniq compare r.actual;
    contingent = List.sort_uniq compare r.contingent;
    par_b = r.par_b;
  }

(* [par_b] and [p_dis] give [analyze]'s answers without its path
   lists; mapping runs them in every gate's finish. *)

let rec par_b = function
  | Pdn.Leaf _ -> false
  | Pdn.Parallel _ -> true
  | Pdn.Series (_, bottom) -> par_b bottom

let rec p_dis = function
  | Pdn.Leaf _ -> 0
  | Pdn.Parallel (a, b) -> p_dis a + p_dis b
  | Pdn.Series (top, bottom) ->
      (if par_b top then 0 else 1 + p_dis top) + p_dis bottom

(* A junction is actual when its top ends in a parallel branch, or when
   it lies inside the top of an ancestor junction whose top does
   ([committed]).  Pre-order is the sorted path order. *)
let actual_points p =
  let rec go prefix committed acc = function
    | Pdn.Leaf _ -> acc
    | Pdn.Parallel (a, b) ->
        go (1 :: prefix) committed (go (0 :: prefix) committed acc a) b
    | Pdn.Series (top, bottom) ->
        let commits = committed || par_b top in
        let acc = if commits then List.rev prefix :: acc else acc in
        go (1 :: prefix) committed (go (0 :: prefix) commits acc top) bottom
  in
  List.rev (go [] false [] p)

let discharge_points ~grounded p =
  if grounded then actual_points p else Pdn.series_junctions p

let discharge_count ~grounded p = List.length (discharge_points ~grounded p)
