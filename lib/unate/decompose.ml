open Logic

let balanced2 combine wires =
  (* Reduce a non-empty list with a balanced binary tree to keep depth
     logarithmic. *)
  let rec reduce = function
    | [] -> invalid_arg "Decompose.balanced2: empty operand list"
    | [ w ] -> w
    | wires ->
        let rec pair = function
          | a :: b :: rest -> combine a b :: pair rest
          | rest -> rest
        in
        reduce (pair wires)
  in
  reduce wires

let to_aoi n =
  let b = Builder.create ~name:(Network.name n) ~size:(Network.node_count n) () in
  let map = Array.make (Network.node_count n) (-1) in
  let and2 x y = Builder.and2 b x y and or2 x y = Builder.or2 b x y in
  let xor2 x y =
    or2 (and2 x (Builder.not_ b y)) (and2 (Builder.not_ b x) y)
  in
  let reduce combine fanins =
    match fanins with
    | [| x |] -> map.(x)
    | [| x; y |] -> combine map.(x) map.(y)
    | _ -> balanced2 combine (Array.to_list (Array.map (fun f -> map.(f)) fanins))
  in
  Network.iter_nodes
    (fun nd ->
      let id = nd.Network.id in
      let new_w =
        match nd.Network.func with
        | Network.Input -> Builder.input b (Network.input_name n id)
        | Network.Const c -> Builder.const b c
        | Network.Gate g ->
            let fanins = nd.Network.fanins in
            let base, inverted = Gate.base g in
            let core =
              match base with
              | Gate.And -> reduce and2 fanins
              | Gate.Or -> reduce or2 fanins
              | Gate.Xor -> reduce xor2 fanins
              | Gate.Buf -> map.(fanins.(0))
              | Gate.Not | Gate.Nand | Gate.Nor | Gate.Xnor -> assert false
            in
            if inverted then Builder.not_ b core else core
      in
      map.(id) <- new_w)
    n;
  Array.iter
    (fun (nm, id) -> Network.set_output (Builder.network b) nm map.(id))
    (Network.outputs n);
  Builder.network b

let is_aoi n =
  let ok = ref true in
  Network.iter_nodes
    (fun nd ->
      match nd.Network.func with
      | Network.Input | Network.Const _ -> ()
      | Network.Gate Gate.Not -> ()
      | Network.Gate (Gate.And | Gate.Or) ->
          if Array.length nd.Network.fanins <> 2 then ok := false
      | Network.Gate _ -> ok := false)
    n;
  !ok
