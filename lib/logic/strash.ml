type report = {
  nodes_before : int;
  nodes_after : int;
  merged : int;
  folded : int;
}

(* Copy a network keeping every primary input but only the gates and
   constants reachable from some primary output.  A network with nothing
   to drop is its own compaction. *)
let compact net =
  let live = Topo.reachable_from_outputs net in
  let dead =
    Network.fold_nodes
      (fun acc nd ->
        acc
        || ((not live.(nd.Network.id))
           && match nd.Network.func with Network.Input -> false | _ -> true))
      false net
  in
  if not dead then net
  else begin
    let out = Network.create ~name:(Network.name net) () in
    let map = Array.make (Network.node_count net) (-1) in
    Network.iter_nodes
      (fun nd ->
        let id = nd.Network.id in
        match nd.Network.func with
        | Network.Input -> map.(id) <- Network.add_input ?name:nd.Network.name out
        | Network.Const b -> if live.(id) then map.(id) <- Network.add_const out b
        | Network.Gate g ->
            if live.(id) then
              map.(id) <-
                Network.add_gate ?name:nd.Network.name out g
                  (Array.map (fun f -> map.(f)) nd.Network.fanins))
      net;
    Array.iter (fun (nm, id) -> Network.set_output out nm map.(id)) (Network.outputs net);
    out
  end

let run_report n =
  let out = Network.create ~name:(Network.name n) () in
  let consed = Hashcons.create (Network.node_count n) ~key_of:(Hashcons.gate_key out) in
  (* The key of the node being built: its gate's tag, then its (sorted,
     for commutative gates) fanin ids in the new network.  The widest
     gate of [n] bounds the fanin count. *)
  let key =
    Array.make
      (2 + Network.fold_nodes (fun m nd -> max m (Array.length nd.Network.fanins)) 0 n)
      0
  in
  let merged = ref 0 and folded = ref 0 in
  let mk_const b = Network.add_const out b in
  let is_const id b = id = Network.const_node out b in
  (* The fanin of an inverter, or -1. *)
  let not_of id =
    let nd = Network.node out id in
    match nd.Network.func with
    | Network.Gate Gate.Not -> nd.Network.fanins.(0)
    | Network.Input | Network.Const _ | Network.Gate _ -> -1
  in
  (* The node whose [k] fanins are in [key.(1..k)]. *)
  let cons g k =
    key.(0) <- Hashcons.gate_tag g;
    let next = Network.node_count out in
    let id = Hashcons.find_or_add consed key (k + 1) next in
    if id = next then ignore (Network.add_gate out g (Array.sub key 1 k))
    else incr merged;
    id
  in
  let mk_not f =
    let g = not_of f in
    if g >= 0 then begin
      incr folded;
      g
    end
    else if is_const f false then (incr folded; mk_const true)
    else if is_const f true then (incr folded; mk_const false)
    else begin
      key.(1) <- f;
      cons Gate.Not 1
    end
  in
  (* An n-ary And/Or with absorption over the new-network fanins in
     [key.(1..k)]. *)
  let mk_andor g k =
    let absorbing = (g = Gate.Or) in
    (* [absorbing]=true value for Or, false for And. *)
    let absorbed = ref false and i = ref 1 in
    while (not !absorbed) && !i <= k do
      absorbed := is_const key.(!i) absorbing;
      incr i
    done;
    if !absorbed then begin
      incr folded;
      mk_const absorbing
    end
    else begin
      let m = ref 0 in
      for i = 1 to k do
        if not (is_const key.(i) (not absorbing)) then begin
          incr m;
          key.(!m) <- key.(i)
        end
      done;
      Hashcons.sort_fanins key 1 !m;
      let m = Hashcons.dedup_fanins key 1 !m in
      (* Complementary pair detection: x together with Not x. *)
      let complementary = ref false in
      for i = 1 to m do
        let g = not_of key.(i) in
        if g >= 0 then
          for j = 1 to m do
            if key.(j) = g then complementary := true
          done
      done;
      if !complementary then begin
        incr folded;
        mk_const absorbing
      end
      else
        match m with
        | 0 ->
            incr folded;
            mk_const (not absorbing)
        | 1 ->
            incr folded;
            key.(1)
        | _ -> cons g m
    end
  in
  let mk_xor k =
    (* Parity: identical fanins cancel pairwise; constants fold into an
       output inversion. *)
    let invert = ref false and m = ref 0 in
    for i = 1 to k do
      let f = key.(i) in
      if is_const f true then invert := not !invert
      else if not (is_const f false) then begin
        incr m;
        key.(!m) <- f
      end
    done;
    Hashcons.sort_fanins key 1 !m;
    (* Keep one copy of each fanin that occurs an odd number of times. *)
    let u = ref 0 and i = ref 1 in
    while !i <= !m do
      let j = ref !i in
      while !j < !m && key.(!j + 1) = key.(!i) do
        incr j
      done;
      if (!j - !i) mod 2 = 0 then begin
        incr u;
        key.(!u) <- key.(!i)
      end;
      i := !j + 1
    done;
    let core =
      match !u with
      | 0 ->
          incr folded;
          mk_const false
      | 1 ->
          incr folded;
          key.(1)
      | u -> cons Gate.Xor u
    in
    if !invert then mk_not core else core
  in
  (* Only rebuild nodes that some primary output actually uses. *)
  let live = Topo.reachable_from_outputs n in
  let map = Array.make (Network.node_count n) (-1) in
  Network.iter_nodes
    (fun nd ->
      let id = nd.Network.id in
      let keep =
        live.(id) || (match nd.Network.func with Network.Input -> true | _ -> false)
      in
      if keep then begin
        let new_id =
          match nd.Network.func with
          | Network.Input -> Network.add_input ?name:nd.Network.name out
          | Network.Const b -> mk_const b
          | Network.Gate g ->
              let fanins = nd.Network.fanins in
              let k = Array.length fanins in
              for i = 0 to k - 1 do
                key.(i + 1) <- map.(fanins.(i))
              done;
              let base, inverted = Gate.base g in
              let core =
                match base with
                | Gate.And | Gate.Or -> mk_andor base k
                | Gate.Xor -> mk_xor k
                | Gate.Buf -> (incr folded; key.(1))
                | Gate.Not | Gate.Nand | Gate.Nor | Gate.Xnor ->
                    (* Gate.base never returns these. *)
                    assert false
              in
              if inverted then mk_not core else core
        in
        map.(id) <- new_id
      end)
    n;
  Array.iter (fun (nm, id) -> Network.set_output out nm map.(id)) (Network.outputs n);
  (* Rewriting can leave intermediate nodes behind (e.g. the inner inverter
     of a collapsed double negation); compact them away. *)
  let out = compact out in
  ( out,
    {
      nodes_before = Network.node_count n;
      nodes_after = Network.node_count out;
      merged = !merged;
      folded = !folded;
    } )

let run n = fst (run_report n)
