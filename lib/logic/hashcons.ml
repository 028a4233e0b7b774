(* Open addressing with linear probing over one int array.  A slot holds
   0 when empty, else the value plus one in its low [value_bits] bits and
   the high bits of its key's hash above them.  Keys are not stored:
   [key_of] rebuilds a bound value's key from the caller's own data, to
   compare it when a probe meets a slot whose hash bits match and to
   rehash on growth.  The slot array is kept at most half full. *)

type t = {
  mutable slots : int array;
  mutable count : int;
  mutable scratch : int array;  (* a bound value's key, rebuilt *)
  key_of : int -> int array -> int;
}

let value_bits = 40
let value_mask = (1 lsl value_bits) - 1

let pow2_at_least n =
  let rec go p = if p >= n then p else go (2 * p) in
  go 16

let create n ~key_of =
  {
    slots = Array.make (pow2_at_least (2 * n)) 0;
    count = 0;
    scratch = Array.make 8 0;
    key_of;
  }

let length t = t.count

(* FNV-style accumulation, then a multiply-xorshift finaliser: the
   products only carry upwards, and the slot index is taken from the low
   bits, which must depend on every bit of every key element (a packed
   name's leading bytes sit in its high bits). *)
let hash key len =
  let h = ref len in
  for i = 0 to len - 1 do
    h := (!h lxor Array.unsafe_get key i) * 0x100000001b3
  done;
  let h = (!h lxor (!h lsr 32)) * 0x3C79AC492BA7B653 in
  let h = (h lxor (h lsr 29)) * 0x1C69B3F74AC4AE35 in
  h lxor (h lsr 32)

let grow t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  let mask = Array.length slots - 1 in
  Array.iter
    (fun s ->
      if s <> 0 then begin
        let h = hash t.scratch (t.key_of ((s land value_mask) - 1) t.scratch) in
        let i = ref (h land mask) in
        while slots.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        slots.(!i) <- (h land lnot value_mask) lor (s land value_mask)
      end)
    t.slots;
  t.slots <- slots

let find_or_add t key len value =
  if value < 0 || value >= value_mask then invalid_arg "Hashcons.find_or_add: value";
  if Array.length t.scratch < len then t.scratch <- Array.make (2 * len) 0;
  if 2 * (t.count + 1) > Array.length t.slots then grow t;
  let h = hash key len in
  let high = h land lnot value_mask in
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let i = ref (h land mask) and found = ref (-1) in
  while !found < 0 do
    let s = Array.unsafe_get slots !i in
    if s = 0 then begin
      slots.(!i) <- high lor (value + 1);
      t.count <- t.count + 1;
      found := value
    end
    else begin
      let v = (s land value_mask) - 1 in
      if
        s land lnot value_mask = high
        && t.key_of v t.scratch = len
        &&
        let j = ref 0 in
        while !j < len && Array.unsafe_get t.scratch !j = Array.unsafe_get key !j do
          incr j
        done;
        !j = len
      then found := v
      else i := (!i + 1) land mask
    end
  done;
  !found

let gate_tag = function
  | Gate.And -> 0
  | Gate.Or -> 1
  | Gate.Nand -> 2
  | Gate.Nor -> 3
  | Gate.Xor -> 4
  | Gate.Xnor -> 5
  | Gate.Not -> 6
  | Gate.Buf -> 7

let gate_key net id key =
  let nd = Network.node net id in
  (match nd.Network.func with
  | Network.Gate g -> key.(0) <- gate_tag g
  | Network.Input | Network.Const _ -> invalid_arg "Hashcons.gate_key: not a gate");
  let fanins = nd.Network.fanins in
  Array.blit fanins 0 key 1 (Array.length fanins);
  1 + Array.length fanins

let sort_fanins key lo hi =
  for i = lo + 1 to hi do
    let x = key.(i) in
    let j = ref (i - 1) in
    while !j >= lo && key.(!j) > x do
      key.(!j + 1) <- key.(!j);
      decr j
    done;
    key.(!j + 1) <- x
  done

let dedup_fanins key lo hi =
  if hi < lo then hi
  else begin
    let m = ref lo in
    for i = lo + 1 to hi do
      if key.(i) <> key.(!m) then begin
        incr m;
        key.(!m) <- key.(i)
      end
    done;
    !m
  end
