let levels n =
  let count = Network.node_count n in
  let lv = Array.make count 0 in
  Network.iter_nodes
    (fun nd ->
      match nd.Network.func with
      | Network.Input | Network.Const _ -> ()
      | Network.Gate _ ->
          let m = Array.fold_left (fun acc f -> max acc lv.(f)) 0 nd.Network.fanins in
          lv.(nd.Network.id) <- m + 1)
    n;
  lv

let depth n =
  let lv = levels n in
  Array.fold_left (fun acc (_, id) -> max acc lv.(id)) 0 (Network.outputs n)

let mark_fanin n seeds =
  let count = Network.node_count n in
  let seen = Array.make count false in
  List.iter (fun s -> seen.(s) <- true) seeds;
  (* A reverse pass suffices because fanins always have smaller ids. *)
  for id = count - 1 downto 0 do
    if seen.(id) then begin
      let fanins = (Network.node n id).Network.fanins in
      for i = 0 to Array.length fanins - 1 do
        seen.(fanins.(i)) <- true
      done
    end
  done;
  seen

let reachable_from_outputs n =
  let seeds = Array.to_list (Array.map snd (Network.outputs n)) in
  mark_fanin n seeds

let transitive_fanin n id = mark_fanin n [ id ]

let output_support n po =
  let id =
    match Array.find_opt (fun (nm, _) -> nm = po) (Network.outputs n) with
    | Some (_, id) -> id
    | None -> raise Not_found
  in
  let seen = transitive_fanin n id in
  Array.to_list (Network.inputs n) |> List.filter (fun i -> seen.(i)) |> List.sort compare
