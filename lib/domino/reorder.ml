(* Flatten a maximal series chain into its factors, top to bottom. *)
let series_factors p =
  let rec go t acc =
    match t with Pdn.Series (a, b) -> go a (go b acc) | t -> t :: acc
  in
  go p []

let rec rearrange p =
  match p with
  | Pdn.Leaf _ -> p
  | Pdn.Parallel (a, b) -> Pdn.Parallel (rearrange a, rearrange b)
  | Pdn.Series _ ->
      let factors = List.map rearrange (series_factors p) in
      (* Placing factor f at the bottom saves (p_dis f + 1) committed
         discharge transistors when f has a parallel branch at its bottom
         (the +1 is the junction beneath the stack), and nothing
         otherwise. *)
      let saving f =
        if Pbe_analysis.par_b f then Pbe_analysis.p_dis f + 1
        else 0
      in
      let best_idx = ref (-1) and best_saving = ref 0 in
      List.iteri
        (fun i f ->
          let s = saving f in
          if s > !best_saving then begin
            best_saving := s;
            best_idx := i
          end)
        factors;
      let ordered =
        if !best_idx < 0 then factors
        else
          let bottom = List.nth factors !best_idx in
          List.filteri (fun i _ -> i <> !best_idx) factors @ [ bottom ]
      in
      (* Re-nest right-associatively: first factor on top. *)
      let rec nest = function
        | [] -> assert false
        | [ f ] -> f
        | f :: rest -> Pdn.Series (f, nest rest)
      in
      nest ordered

let savings ~grounded p =
  Pbe_analysis.discharge_count ~grounded p
  - Pbe_analysis.discharge_count ~grounded (rearrange p)
