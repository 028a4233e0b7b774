type func =
  | Input
  | Const of bool
  | Gate of Gate.t

type node = {
  id : int;
  func : func;
  fanins : int array;
  name : string option;
}

type t = {
  net_name : string;
  nodes : node Vec.t;
  input_ids : int Vec.t;
  output_binds : (string * int) Vec.t;
  mutable const0 : int option;
  mutable const1 : int option;
}

let create ?(name = "network") () =
  {
    net_name = name;
    nodes = Vec.create ();
    input_ids = Vec.create ();
    output_binds = Vec.create ();
    const0 = None;
    const1 = None;
  }

let name n = n.net_name

let node_count n = Vec.length n.nodes

let node n id = Vec.get n.nodes id

let add_node n func fanins name =
  let id = Vec.length n.nodes in
  ignore (Vec.push n.nodes { id; func; fanins; name });
  id

let add_input ?name n =
  let id = add_node n Input [||] name in
  ignore (Vec.push n.input_ids id);
  id

let add_const n b =
  let cached = if b then n.const1 else n.const0 in
  match cached with
  | Some id -> id
  | None ->
      let id = add_node n (Const b) [||] None in
      if b then n.const1 <- Some id else n.const0 <- Some id;
      id

let const_node n b =
  match if b then n.const1 else n.const0 with Some id -> id | None -> -1

(* One shared [Gate g] value per gate kind. *)
let gate_func = function
  | Gate.And -> Gate Gate.And
  | Gate.Or -> Gate Gate.Or
  | Gate.Nand -> Gate Gate.Nand
  | Gate.Nor -> Gate Gate.Nor
  | Gate.Xor -> Gate Gate.Xor
  | Gate.Xnor -> Gate Gate.Xnor
  | Gate.Not -> Gate Gate.Not
  | Gate.Buf -> Gate Gate.Buf

let add_gate ?name n g fanins =
  let count = Vec.length n.nodes in
  for i = 0 to Array.length fanins - 1 do
    let f = fanins.(i) in
    if f < 0 || f >= count then
      invalid_arg (Printf.sprintf "Network.add_gate: fanin %d does not exist" f)
  done;
  if not (Gate.arity_ok g (Array.length fanins)) then
    invalid_arg
      (Printf.sprintf "Network.add_gate: %s cannot have %d fanins"
         (Gate.to_string g) (Array.length fanins));
  add_node n (gate_func g) fanins name

let set_output n po_name id =
  if id < 0 || id >= Vec.length n.nodes then
    invalid_arg (Printf.sprintf "Network.set_output: node %d does not exist" id);
  (* Replace an existing binding with the same name, if any. *)
  let replaced = ref false in
  Vec.iteri
    (fun i (nm, _) ->
      if nm = po_name then begin
        Vec.set n.output_binds i (po_name, id);
        replaced := true
      end)
    n.output_binds;
  if not !replaced then ignore (Vec.push n.output_binds (po_name, id))

let inputs n = Vec.to_array n.input_ids

let outputs n = Vec.to_array n.output_binds

let input_name n id =
  let nd = node n id in
  match nd.func with
  | Input -> (
      match nd.name with
      | Some s -> s
      | None ->
          (* Position of this input among all inputs. *)
          let pos = ref (-1) in
          Vec.iteri (fun i x -> if x = id then pos := i) n.input_ids;
          Printf.sprintf "x%d" !pos)
  | Const _ | Gate _ ->
      invalid_arg (Printf.sprintf "Network.input_name: node %d is not an input" id)

let fanout_counts n =
  let counts = Array.make (Vec.length n.nodes) 0 in
  Vec.iter
    (fun nd -> Array.iter (fun f -> counts.(f) <- counts.(f) + 1) nd.fanins)
    n.nodes;
  counts

let iter_nodes f n = Vec.iter f n.nodes

let fold_nodes f init n = Vec.fold f init n.nodes

let validate n =
  let count = Vec.length n.nodes in
  let error = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !error = None then error := Some s) fmt in
  Vec.iter
    (fun nd ->
      Array.iter
        (fun f -> if f >= nd.id then fail "node %d has non-causal fanin %d" nd.id f)
        nd.fanins;
      match nd.func with
      | Input | Const _ ->
          if Array.length nd.fanins <> 0 then fail "node %d: source node with fanins" nd.id
      | Gate g ->
          if not (Gate.arity_ok g (Array.length nd.fanins)) then
            fail "node %d: bad arity %d for %s" nd.id (Array.length nd.fanins)
              (Gate.to_string g))
    n.nodes;
  Vec.iter
    (fun (nm, id) ->
      if id < 0 || id >= count then fail "output %s refers to missing node %d" nm id)
    n.output_binds;
  if Vec.is_empty n.output_binds then fail "network has no outputs";
  match !error with None -> Ok () | Some e -> Error e

let pp fmt n =
  Format.fprintf fmt "@[<v>network %s (%d nodes)@," n.net_name (node_count n);
  iter_nodes
    (fun nd ->
      let name = match nd.name with Some s -> " \"" ^ s ^ "\"" | None -> "" in
      match nd.func with
      | Input -> Format.fprintf fmt "  %4d: input%s@," nd.id name
      | Const b -> Format.fprintf fmt "  %4d: const %b%s@," nd.id b name
      | Gate g ->
          Format.fprintf fmt "  %4d: %s(%s)%s@," nd.id (Gate.to_string g)
            (String.concat ", " (Array.to_list (Array.map string_of_int nd.fanins)))
            name)
    n;
  Vec.iter (fun (nm, id) -> Format.fprintf fmt "  output %s = %d@," nm id) n.output_binds;
  Format.fprintf fmt "@]"
