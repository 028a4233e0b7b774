type wire = int

type t = {
  net : Network.t;
  consed : Hashcons.t;
  mutable key : int array;
      (* scratch: the tag then the fanins of the node being built *)
}

let create ?name ?(size = 256) () =
  let net = Network.create ?name () in
  { net; consed = Hashcons.create size ~key_of:(Hashcons.gate_key net); key = Array.make 16 0 }

let network b = b.net

let input b name = Network.add_input ~name b.net

let inputs b prefix k = Array.init k (fun i -> input b (Printf.sprintf "%s%d" prefix i))

let const b v = Network.add_const b.net v

(* The node whose [k] fanins are in [key.(1..k)]. *)
let cons b g k =
  let key = b.key in
  key.(0) <- Hashcons.gate_tag g;
  let next = Network.node_count b.net in
  let id = Hashcons.find_or_add b.consed key (k + 1) next in
  if id = next then ignore (Network.add_gate b.net g (Array.sub key 1 k));
  id

let not_ b w =
  let nd = Network.node b.net w in
  match nd.Network.func with
  | Network.Gate Gate.Not -> nd.Network.fanins.(0)
  | Network.Const c -> const b (not c)
  | Network.Input | Network.Gate _ ->
      b.key.(1) <- w;
      cons b Gate.Not 1

(* And/Or over the [k] wires in [key.(1..k)]. *)
let andor_key b g k =
  let absorbing = g = Gate.Or in
  let key = b.key in
  let zero = Network.const_node b.net absorbing in
  let absorbed = ref false and i = ref 1 in
  while (not !absorbed) && !i <= k do
    absorbed := key.(!i) = zero;
    incr i
  done;
  if !absorbed then const b absorbing
  else begin
    let one = Network.const_node b.net (not absorbing) in
    let m = ref 0 in
    for i = 1 to k do
      let w = key.(i) in
      if w <> one then begin
        incr m;
        key.(!m) <- w
      end
    done;
    Hashcons.sort_fanins key 1 !m;
    match Hashcons.dedup_fanins key 1 !m with
    | 0 -> const b (not absorbing)
    | 1 -> key.(1)
    | m -> cons b g m
  end

let load_key b ws =
  let k = List.length ws in
  if Array.length b.key <= k then b.key <- Array.make (2 * (k + 1)) 0;
  List.iteri (fun i w -> b.key.(i + 1) <- w) ws;
  k

let and_ b ws = andor_key b Gate.And (load_key b ws)
let or_ b ws = andor_key b Gate.Or (load_key b ws)

let xor_ b ws =
  let k = load_key b ws in
  let key = b.key in
  let one = Network.const_node b.net true and zero = Network.const_node b.net false in
  let m = ref 0 and invert = ref false in
  for i = 1 to k do
    let w = key.(i) in
    if w = one then invert := not !invert
    else if w <> zero then begin
      incr m;
      key.(!m) <- w
    end
  done;
  Hashcons.sort_fanins key 1 !m;
  let core =
    match !m with
    | 0 -> const b false
    | 1 -> key.(1)
    | m -> cons b Gate.Xor m
  in
  if !invert then not_ b core else core

let pair b g x y =
  b.key.(1) <- x;
  b.key.(2) <- y;
  andor_key b g 2

let and2 b x y = pair b Gate.And x y
let or2 b x y = pair b Gate.Or x y
let xor2 b x y = xor_ b [ x; y ]
let xnor2 b x y = not_ b (xor2 b x y)

let mux b ~sel a0 a1 = or2 b (and2 b (not_ b sel) a0) (and2 b sel a1)

let ite b c t e = mux b ~sel:c e t

let output b name w = Network.set_output b.net name w

let outputs b prefix ws =
  Array.iteri (fun i w -> output b (Printf.sprintf "%s%d" prefix i) w) ws
