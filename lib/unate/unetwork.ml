open Logic

type lit = { input : int; positive : bool }

type fin =
  | F_node of int
  | F_lit of lit
  | F_const of bool

type kind = U_and | U_or

type node = {
  id : int;
  kind : kind;
  fanin0 : fin;
  fanin1 : fin;
}

type t = {
  src : string;
  input_names : string array;
  nodes : node Vec.t;
  outs : (string * fin) array;
}

let source_name u = u.src
let inputs u = u.input_names
let node_count u = Vec.length u.nodes
let node u id = Vec.get u.nodes id
let outputs u = u.outs

(* ------------------------------------------------------------------ *)
(* Construction with hash-consing and constant folding.                *)
(* ------------------------------------------------------------------ *)

type builder = {
  b_nodes : node Vec.t;
  consed : Hashcons.t;  (* [kind; fanin0; fanin1] codes -> node id *)
  key : int array;
}

(* An injective int code of a fanin, for hash-consing keys. *)
let fin_code = function
  | F_node i -> 4 * i
  | F_lit { input; positive } -> (4 * input) + if positive then 2 else 1
  | F_const c -> if c then 7 else 3

let kind_code = function U_and -> 0 | U_or -> 1

let write_key key kind a b =
  key.(0) <- kind_code kind;
  key.(1) <- fin_code a;
  key.(2) <- fin_code b;
  3

let new_builder n =
  let b_nodes = Vec.create () in
  let key_of id key =
    let nd = Vec.get b_nodes id in
    write_key key nd.kind nd.fanin0 nd.fanin1
  in
  { b_nodes; consed = Hashcons.create n ~key_of; key = Array.make 3 0 }

(* Polymorphic compare's order on fins: constructor first, then
   payload. *)
let fin_compare a b =
  match (a, b) with
  | F_node i, F_node j -> Int.compare i j
  | F_node _, (F_lit _ | F_const _) -> -1
  | (F_lit _ | F_const _), F_node _ -> 1
  | F_lit x, F_lit y ->
      let c = Int.compare x.input y.input in
      if c <> 0 then c else Bool.compare x.positive y.positive
  | F_lit _, F_const _ -> -1
  | F_const _, F_lit _ -> 1
  | F_const x, F_const y -> Bool.compare x y

let fin_equal a b = fin_compare a b = 0

let f_true = F_const true
let f_false = F_const false

let mk bu kind a b =
  (* Local simplifications keep the unate network lean; they never create
     inverters, so unateness is preserved. *)
  let absorbing = if kind = U_or then f_true else f_false in
  let identity = if kind = U_or then f_false else f_true in
  let complementary =
    match (a, b) with
    | F_lit la, F_lit lb -> la.input = lb.input && la.positive <> lb.positive
    | _ -> false
  in
  if fin_equal a absorbing || fin_equal b absorbing then absorbing
  else if complementary then absorbing  (* x & ~x = 0, x | ~x = 1 *)
  else if fin_equal a identity then b
  else if fin_equal b identity then a
  else if fin_equal a b then a
  else begin
    let swap = fin_compare a b > 0 in
    let a = if swap then b else a and b = if swap then a else b in
    let len = write_key bu.key kind a b in
    let next = Vec.length bu.b_nodes in
    let id = Hashcons.find_or_add bu.consed bu.key len next in
    if id = next then
      ignore (Vec.push bu.b_nodes { id; kind; fanin0 = a; fanin1 = b });
    F_node id
  end

(* Sweep: keep only builder nodes reachable from the outputs, preserving
   order, and package the result. *)
let sweep bu outs ~src ~input_names =
  let total = Vec.length bu.b_nodes in
  let live = Array.make total false in
  let mark = function F_node i -> live.(i) <- true | F_lit _ | F_const _ -> () in
  Array.iter (fun (_, f) -> mark f) outs;
  for i = total - 1 downto 0 do
    if live.(i) then begin
      let nd = Vec.get bu.b_nodes i in
      mark nd.fanin0;
      mark nd.fanin1
    end
  done;
  if Array.for_all Fun.id live then { src; input_names; nodes = bu.b_nodes; outs }
  else begin
    let remap = Array.make total (-1) in
    let nodes = Vec.create () in
    let fix = function
      | F_node i -> F_node remap.(i)
      | (F_lit _ | F_const _) as f -> f
    in
    Vec.iteri
      (fun i nd ->
        if live.(i) then begin
          let id = Vec.length nodes in
          remap.(i) <- id;
          ignore
            (Vec.push nodes
               { id; kind = nd.kind; fanin0 = fix nd.fanin0; fanin1 = fix nd.fanin1 })
        end)
      bu.b_nodes;
    let outs = Array.map (fun (nm, f) -> (nm, fix f)) outs in
    { src; input_names; nodes; outs }
  end

(* Marks an unexpanded slot of the expand memo (compared physically). *)
let unset = F_node (-1)

let of_network_with_phases n phases =
  let phase_of nm =
    match List.assoc_opt nm phases with Some p -> p | None -> true
  in
  let count = Network.node_count n in
  let input_ids = Network.inputs n in
  let input_pos = Array.make count (-1) in
  Array.iteri (fun k id -> input_pos.(id) <- k) input_ids;
  let bu = new_builder count in
  (* Node [id] in phase [p] is slot [2 * id + (if p then 1 else 0)]. *)
  let memo = Array.make (2 * count) unset in
  (* Expand node [id] of the source network in phase [p] ([true] =
     positive).  Recursion depth equals the network depth times a small
     constant, which is safe for the circuits we handle. *)
  let rec expand id p =
    let slot = (2 * id) + if p then 1 else 0 in
    let f = memo.(slot) in
    if f != unset then f
    else begin
      let nd = Network.node n id in
      let f =
        match nd.Network.func with
        | Network.Input -> F_lit { input = input_pos.(id); positive = p }
        | Network.Const c -> F_const (c = p)
        | Network.Gate g -> expand_gate g nd.Network.fanins p
      in
      memo.(slot) <- f;
      f
    end
  and expand_gate g fanins p =
    let base, inverted = Gate.base g in
    let p = if inverted then not p else p in
    match base with
    | Gate.Buf -> expand fanins.(0) p
    | Gate.And | Gate.Or ->
        let kind =
          match (base, p) with
          | Gate.And, true | Gate.Or, false -> U_and
          | Gate.Or, true | Gate.And, false -> U_or
          | _ -> assert false
        in
        if Array.length fanins = 2 then
          mk bu kind (expand fanins.(0) p) (expand fanins.(1) p)
        else
          (* A balanced tree over [fanins.(lo .. hi-1)], its first half
             on the left. *)
          let rec tree lo hi =
            if hi - lo = 1 then expand fanins.(lo) p
            else
              let mid = lo + ((hi - lo) / 2) in
              mk bu kind (tree lo mid) (tree mid hi)
          in
          tree 0 (Array.length fanins)
    | Gate.Xor ->
        (* Balanced parity tree expanded locally; each XOR2 needs both
           phases of both operands. *)
        let rec xtree lo hi p =
          match hi - lo with
          | 0 -> F_const (not p)
          | 1 -> expand fanins.(lo) p
          | _ ->
              let mid = lo + ((hi - lo) / 2) in
              let xor2 a_pos a_neg b_pos b_neg =
                mk bu U_or (mk bu U_and a_pos b_neg) (mk bu U_and a_neg b_pos)
              in
              let lp = xtree lo mid true and ln = xtree lo mid false in
              let rp = xtree mid hi true and rn = xtree mid hi false in
              if p then xor2 lp ln rp rn
              else mk bu U_or (mk bu U_and lp rp) (mk bu U_and ln rn)
        in
        xtree 0 (Array.length fanins) p
    | Gate.Not | Gate.Nand | Gate.Nor | Gate.Xnor -> assert false
  in
  let outs =
    Array.map (fun (nm, id) -> (nm, expand id (phase_of nm))) (Network.outputs n)
  in
  sweep bu outs ~src:(Network.name n)
    ~input_names:(Array.map (fun id -> Network.input_name n id) input_ids)

(* ------------------------------------------------------------------ *)
(* Structural editing (used by the differential shrinker).             *)
(* ------------------------------------------------------------------ *)

let with_structure u ~nodes ~outputs =
  let bu = new_builder (Array.length nodes) in
  let mapped = Array.make (Array.length nodes) (F_const false) in
  let fix = function
    | F_node i -> mapped.(i)
    | (F_lit _ | F_const _) as f -> f
  in
  Array.iteri
    (fun i nd -> mapped.(i) <- mk bu nd.kind (fix nd.fanin0) (fix nd.fanin1))
    nodes;
  let outs = Array.map (fun (nm, f) -> (nm, fix f)) outputs in
  sweep bu outs ~src:u.src ~input_names:u.input_names

(* ------------------------------------------------------------------ *)
(* Views and evaluation.                                               *)
(* ------------------------------------------------------------------ *)

let to_network u =
  let b =
    Builder.create ~name:(u.src ^ "_unate")
      ~size:(Vec.length u.nodes + Array.length u.input_names)
      ()
  in
  let ins = Array.map (fun nm -> Builder.input b nm) u.input_names in
  let wire_of_fin values = function
    | F_const c -> Builder.const b c
    | F_lit { input; positive } ->
        if positive then ins.(input) else Builder.not_ b ins.(input)
    | F_node i -> values.(i)
  in
  let values = Array.make (Vec.length u.nodes) (-1) in
  Vec.iter
    (fun nd ->
      let x = wire_of_fin values nd.fanin0 and y = wire_of_fin values nd.fanin1 in
      values.(nd.id) <-
        (match nd.kind with
        | U_and -> Builder.and2 b x y
        | U_or -> Builder.or2 b x y))
    u.nodes;
  Array.iter
    (fun (nm, f) -> Network.set_output (Builder.network b) nm (wire_of_fin values f))
    u.outs;
  Builder.network b

let fanout_counts u =
  let counts = Array.make (Vec.length u.nodes) 0 in
  let bump = function F_node i -> counts.(i) <- counts.(i) + 1 | F_lit _ | F_const _ -> () in
  Vec.iter
    (fun nd ->
      bump nd.fanin0;
      bump nd.fanin1)
    u.nodes;
  Array.iter (fun (_, f) -> bump f) u.outs;
  counts

let po_refs u =
  let counts = Array.make (Vec.length u.nodes) 0 in
  Array.iter
    (fun (_, f) ->
      match f with F_node i -> counts.(i) <- counts.(i) + 1 | F_lit _ | F_const _ -> ())
    u.outs;
  counts

let eval u pi_values =
  if Array.length pi_values <> Array.length u.input_names then
    invalid_arg "Unetwork.eval: wrong input count";
  let values = Array.make (Vec.length u.nodes) false in
  let value_of = function
    | F_const c -> c
    | F_lit { input; positive } -> if positive then pi_values.(input) else not pi_values.(input)
    | F_node i -> values.(i)
  in
  Vec.iter
    (fun nd ->
      let x = value_of nd.fanin0 and y = value_of nd.fanin1 in
      values.(nd.id) <- (match nd.kind with U_and -> x && y | U_or -> x || y))
    u.nodes;
  Array.map (fun (nm, f) -> (nm, value_of f)) u.outs

let eval64 u words =
  if Array.length words <> Array.length u.input_names then
    invalid_arg "Unetwork.eval64: wrong input count";
  let values = Array.make (Vec.length u.nodes) 0L in
  let value_of = function
    | F_const c -> if c then -1L else 0L
    | F_lit { input; positive } ->
        if positive then words.(input) else Int64.lognot words.(input)
    | F_node i -> values.(i)
  in
  Vec.iter
    (fun nd ->
      let x = value_of nd.fanin0 and y = value_of nd.fanin1 in
      values.(nd.id) <-
        (match nd.kind with U_and -> Int64.logand x y | U_or -> Int64.logor x y))
    u.nodes;
  Array.map (fun (nm, f) -> (nm, value_of f)) u.outs

let depth u =
  let levels = Array.make (Vec.length u.nodes) 0 in
  let level_of = function
    | F_const _ | F_lit _ -> 0
    | F_node i -> levels.(i)
  in
  Vec.iter
    (fun nd -> levels.(nd.id) <- 1 + max (level_of nd.fanin0) (level_of nd.fanin1))
    u.nodes;
  Array.fold_left (fun acc (_, f) -> max acc (level_of f)) 0 u.outs

let negative_literals_used u =
  let seen = Hashtbl.create 16 in
  let look = function
    | F_lit { input; positive = false } -> Hashtbl.replace seen input ()
    | F_lit _ | F_node _ | F_const _ -> ()
  in
  Vec.iter
    (fun nd ->
      look nd.fanin0;
      look nd.fanin1)
    u.nodes;
  Array.iter (fun (_, f) -> look f) u.outs;
  Hashtbl.fold (fun k () acc -> k :: acc) seen [] |> List.sort compare

let duplication ~source u =
  let gates = ref 0 in
  Network.iter_nodes
    (fun nd ->
      match nd.Network.func with
      | Network.Gate (Gate.And | Gate.Or) -> incr gates
      | _ -> ())
    source;
  if !gates = 0 then 1.0 else float_of_int (node_count u) /. float_of_int !gates

let of_network n = of_network_with_phases n []
