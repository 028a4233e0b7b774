(* Chains are built leaf-signal lists, top-to-bottom. *)
let rec chains limit p =
  match p with
  | Pdn.Leaf s -> Some [ [ s ] ]
  | Pdn.Parallel (a, b) -> (
      match (chains limit a, chains limit b) with
      | Some ca, Some cb ->
          let all = ca @ cb in
          let size = List.fold_left (fun acc c -> acc + List.length c) 0 all in
          if size > limit then None else Some all
      | _ -> None)
  | Pdn.Series (a, b) -> (
      match (chains limit a, chains limit b) with
      | Some ca, Some cb ->
          let all =
            List.concat_map (fun c1 -> List.map (fun c2 -> c1 @ c2) cb) ca
          in
          let size = List.fold_left (fun acc c -> acc + List.length c) 0 all in
          if size > limit then None else Some all
      | _ -> None)

let rebuild cs =
  let chain c =
    match List.rev c with
    | [] -> assert false
    | last :: rev_front ->
        List.fold_left (fun acc s -> Pdn.Series (Pdn.Leaf s, acc)) (Pdn.Leaf last)
          rev_front
  in
  match List.map chain cs with
  | [] -> assert false
  | first :: rest -> List.fold_left (fun acc c -> Pdn.Parallel (acc, c)) first rest

let sop_form ?(limit = 4096) p = Option.map rebuild (chains limit p)

let split_stacks ?(w_limit = max_int) (c : Circuit.t) =
  let gates =
    Array.map
      (fun g ->
        (* Only gates that actually need discharge transistors are worth
           replicating. *)
        if g.Domino_gate.discharge_points = [] then g
        else
          match sop_form g.Domino_gate.pdn with
          | Some sop when Pdn.width sop <= w_limit ->
              (* A grounded SOP spine commits no discharge points. *)
              { g with Domino_gate.pdn = sop; discharge_points = [] }
          | Some _ | None -> g)
      c.Circuit.gates
  in
  { c with Circuit.gates = gates }

let body_contacts_needed (g : Domino_gate.t) =
  let risky = Pbe_analysis.discharge_points ~grounded:true g.Domino_gate.pdn in
  (* Count leaves whose source node is a risky junction. *)
  let count = ref 0 in
  let rec walk prefix below = function
    | Pdn.Leaf _ -> (
        match below with
        | `Junction path when List.mem path risky -> incr count
        | `Junction _ | `Ground -> ())
    | Pdn.Series (a, b) ->
        let j = `Junction (List.rev prefix) in
        walk (0 :: prefix) j a;
        walk (1 :: prefix) below b
    | Pdn.Parallel (a, b) ->
        walk (0 :: prefix) below a;
        walk (1 :: prefix) below b
  in
  walk [] `Ground g.Domino_gate.pdn;
  !count

let circuit_body_contacts (c : Circuit.t) =
  Array.fold_left (fun acc g -> acc + body_contacts_needed g) 0 c.Circuit.gates
