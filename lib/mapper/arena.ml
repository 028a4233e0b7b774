(* Flat arena support for the DP hot core: bit-packed tuple algebra and
   per-call scratch buffers.  See arena.mli and docs/arena.md for the
   packing layout, the saturation (check-and-fall-back, never clamp)
   rules, and the exactness argument; test/test_arena.ml proves the
   packed algebra agrees with the boxed one and that the filtered
   engine is frontier-for-frontier identical to the legacy path. *)

let m_overflow = Obs.Metrics.counter "arena.overflow"
let m_filtered = Obs.Metrics.counter "arena.filtered"
(* [arena.filtered] is landed in one batch per map call by the engine
   (which owns the per-sweep count); the handle is registered here so
   the metric exists — at its documented name — even before the first
   instrumented map runs. *)
let _ = m_filtered

module Packed = struct
  let invalid = -1

  (* Word 0: weighted[0..29] depth[30..39] raw[40..61]. *)
  let bits_weighted = 30
  let bits_depth = 10
  let max_weighted = (1 lsl bits_weighted) - 1
  let max_depth = (1 lsl bits_depth) - 1
  let max_raw = (1 lsl 22) - 1
  let sh_depth = bits_weighted
  let sh_raw = bits_weighted + bits_depth
  let mask_weighted = max_weighted
  let mask_depth = max_depth

  (* Word 1: w[0..8] h[9..17] p_dis[18..31] disch[32..47] par_b[48]
     has_pi[49]. *)
  let bits_w = 9
  let bits_h = 9
  let bits_p_dis = 14
  let bits_disch = 16
  let max_w = (1 lsl bits_w) - 1
  let max_h = (1 lsl bits_h) - 1
  let max_p_dis = (1 lsl bits_p_dis) - 1
  let max_disch = (1 lsl bits_disch) - 1
  let sh_h = bits_w
  let sh_p_dis = bits_w + bits_h
  let sh_disch = sh_p_dis + bits_p_dis
  let sh_par_b = sh_disch + bits_disch
  let sh_has_pi = sh_par_b + 1
  let mask_w = max_w
  let mask_h = max_h
  let mask_p_dis = max_p_dis
  let mask_disch = max_disch

  let weighted w0 = w0 land mask_weighted
  let depth w0 = (w0 lsr sh_depth) land mask_depth
  let raw w0 = w0 lsr sh_raw
  let w w1 = w1 land mask_w
  let h w1 = (w1 lsr sh_h) land mask_h
  let p_dis w1 = (w1 lsr sh_p_dis) land mask_p_dis
  let disch w1 = (w1 lsr sh_disch) land mask_disch
  let par_b w1 = (w1 lsr sh_par_b) land 1 = 1
  let has_pi w1 = (w1 lsr sh_has_pi) land 1 = 1

  let in_range v max = v >= 0 && v <= max

  let mk0 ~weighted ~depth ~raw =
    if
      in_range weighted max_weighted
      && in_range depth max_depth
      && in_range raw max_raw
    then weighted lor (depth lsl sh_depth) lor (raw lsl sh_raw)
    else invalid

  let mk1 ~w ~h ~p_dis ~disch ~par_b ~has_pi =
    if
      in_range w max_w && in_range h max_h
      && in_range p_dis max_p_dis
      && in_range disch max_disch
    then
      w lor (h lsl sh_h) lor (p_dis lsl sh_p_dis) lor (disch lsl sh_disch)
      lor ((if par_b then 1 else 0) lsl sh_par_b)
      lor ((if has_pi then 1 else 0) lsl sh_has_pi)
    else invalid

  let pack0 (s : Soi_rules.sol) =
    mk0 ~weighted:s.Soi_rules.value.Cost.weighted
      ~depth:s.Soi_rules.value.Cost.depth ~raw:s.Soi_rules.value.Cost.raw

  let pack1 (s : Soi_rules.sol) =
    mk1 ~w:s.Soi_rules.w ~h:s.Soi_rules.h ~p_dis:s.Soi_rules.p_dis
      ~disch:s.Soi_rules.disch ~par_b:s.Soi_rules.par_b
      ~has_pi:s.Soi_rules.has_pi

  (* Placeholder structure: packed words carry scalars only. *)
  let dummy_structure =
    Domino.Pdn.Leaf (Domino.Pdn.S_pi { input = 0; positive = true })

  let unpack_with ~structure ~w0 ~w1 =
    {
      Soi_rules.w = w w1;
      h = h w1;
      value = { Cost.weighted = weighted w0; depth = depth w0; raw = raw w0 };
      p_dis = p_dis w1;
      par_b = par_b w1;
      has_pi = has_pi w1;
      disch = disch w1;
      structure;
    }

  let unpack ~w0 ~w1 = unpack_with ~structure:dummy_structure ~w0 ~w1

  let dominates ~depth_matters a0 a1 b0 b1 =
    par_b a1 = par_b b1
    && ((not (has_pi a1)) || has_pi b1)
    && weighted a0 <= weighted b0
    && ((not depth_matters) || depth a0 <= depth b0)
    && p_dis a1 <= p_dis b1

  let or0 a0 b0 =
    if a0 < 0 || b0 < 0 then invalid
    else
      mk0
        ~weighted:(weighted a0 + weighted b0)
        ~depth:(max (depth a0) (depth b0))
        ~raw:(raw a0 + raw b0)

  let or1 a1 b1 =
    if a1 < 0 || b1 < 0 then invalid
    else
      mk1 ~w:(w a1 + w b1) ~h:(max (h a1) (h b1))
        ~p_dis:(p_dis a1 + p_dis b1)
        ~disch:(disch a1 + disch b1)
        ~par_b:true
        ~has_pi:(has_pi a1 || has_pi b1)

  let committed top1 = if par_b top1 then p_dis top1 + 1 else 0

  let and_soi0 ~discharge ~top0 ~top1 ~bottom0 =
    if top0 < 0 || top1 < 0 || bottom0 < 0 then invalid
    else
      let c = committed top1 in
      mk0
        ~weighted:(weighted top0 + weighted bottom0 + (c * discharge))
        ~depth:(max (depth top0) (depth bottom0))
        ~raw:(raw top0 + raw bottom0 + c)

  let and_soi1 ~top1 ~bottom1 =
    if top1 < 0 || bottom1 < 0 then invalid
    else
      let c = committed top1 in
      mk1
        ~w:(max (w top1) (w bottom1))
        ~h:(h top1 + h bottom1)
        ~p_dis:
          (if par_b top1 then p_dis bottom1
           else p_dis top1 + 1 + p_dis bottom1)
        ~disch:(disch top1 + disch bottom1 + c)
        ~par_b:(par_b bottom1)
        ~has_pi:(has_pi top1 || has_pi bottom1)

  let and_bulk0 ~top0 ~bottom0 =
    if top0 < 0 || bottom0 < 0 then invalid
    else
      mk0
        ~weighted:(weighted top0 + weighted bottom0)
        ~depth:(max (depth top0) (depth bottom0))
        ~raw:(raw top0 + raw bottom0)

  let and_bulk1 ~top1 ~bottom1 =
    if top1 < 0 || bottom1 < 0 then invalid
    else
      mk1
        ~w:(max (w top1) (w bottom1))
        ~h:(h top1 + h bottom1)
        ~p_dis:0
        ~disch:(disch top1 + disch bottom1)
        ~par_b:false
        ~has_pi:(has_pi top1 || has_pi bottom1)
end

(* ---------- flat network view ---------- *)

module Net = struct
  type t = { kinds : Bytes.t; f0 : int array; f1 : int array }

  let encode = function
    | Unate.Unetwork.F_node m -> m
    | Unate.Unetwork.F_const false -> -1
    | Unate.Unetwork.F_const true -> -2
    | Unate.Unetwork.F_lit { input; positive } ->
        -(3 + (input * 2) + if positive then 1 else 0)

  let is_node e = e >= 0
  let is_const e = e = -1 || e = -2
  let const_value e = e = -2
  let lit_input e = (-e - 3) lsr 1
  let lit_positive e = (-e - 3) land 1 = 1

  let of_unetwork u =
    let n = Unate.Unetwork.node_count u in
    let kinds = Bytes.create n in
    let f0 = Array.make n 0 and f1 = Array.make n 0 in
    for id = 0 to n - 1 do
      let nd = Unate.Unetwork.node u id in
      Bytes.unsafe_set kinds id
        (match nd.Unate.Unetwork.kind with
        | Unate.Unetwork.U_and -> '\001'
        | Unate.Unetwork.U_or -> '\000');
      f0.(id) <- encode nd.Unate.Unetwork.fanin0;
      f1.(id) <- encode nd.Unate.Unetwork.fanin1
    done;
    { kinds; f0; f1 }

  let node_count t = Bytes.length t.kinds
  let is_and t id = Bytes.unsafe_get t.kinds id = '\001'
  let fin0 t id = t.f0.(id)
  let fin1 t id = t.f1.(id)
end

(* ---------- per-call scratch ---------- *)

type ctx = {
  (* packed fanin option lists of the node under construction *)
  mutable a0 : int array;
  mutable a1 : int array;
  mutable b0 : int array;
  mutable b1 : int array;
  (* packed frontier mirror: per-slot counts (-1 = dirty, price boxed)
     and a flat [slot * cap + k] word store *)
  mutable mn : int array;
  mutable m0 : int array;
  mutable m1 : int array;
  mutable slots : int;  (* live slot count = w_max * h_max *)
  mutable cap : int;  (* per-slot mirror capacity *)
  mutable w_max : int;
  mutable h_max : int;
}

let create () =
  {
    a0 = Array.make 64 Packed.invalid;
    a1 = Array.make 64 Packed.invalid;
    b0 = Array.make 64 Packed.invalid;
    b1 = Array.make 64 Packed.invalid;
    mn = Array.make 64 0;
    m0 = Array.make 256 Packed.invalid;
    m1 = Array.make 256 Packed.invalid;
    slots = 0;
    cap = 4;
    w_max = 0;
    h_max = 0;
  }

(* Bounding [w_max * h_max] keeps the per-call frontier mirror small
   (slots * cap words per array); every option set in the repo is far
   below it. *)
let max_slots = 4096

let eligible ~w_max ~h_max =
  w_max <= Packed.max_w && h_max <= Packed.max_h && w_max * h_max <= max_slots

let note_overflow () = Obs.Metrics.incr m_overflow

let grow a n init =
  if Array.length a >= n then a
  else Array.make (max n (2 * Array.length a)) init

let load ctx which opts =
  let n = List.length opts in
  (match which with
  | `A ->
      ctx.a0 <- grow ctx.a0 n Packed.invalid;
      ctx.a1 <- grow ctx.a1 n Packed.invalid
  | `B ->
      ctx.b0 <- grow ctx.b0 n Packed.invalid;
      ctx.b1 <- grow ctx.b1 n Packed.invalid);
  let d0, d1 =
    match which with `A -> (ctx.a0, ctx.a1) | `B -> (ctx.b0, ctx.b1)
  in
  List.iteri
    (fun i s ->
      let w0 = Packed.pack0 s and w1 = Packed.pack1 s in
      if w0 < 0 || w1 < 0 then begin
        note_overflow ();
        d0.(i) <- Packed.invalid;
        d1.(i) <- Packed.invalid
      end
      else begin
        d0.(i) <- w0;
        d1.(i) <- w1
      end)
    opts

let begin_node ctx ~w_max ~h_max ~opts0 ~opts1 =
  let slots = w_max * h_max in
  (* The mirror holds post-cap frontiers: at most pareto_width tuples
     under each of the (up to three) cap orders.  8 covers every
     sampled pareto_width; refresh marks longer slots dirty. *)
  let cap = max ctx.cap 8 in
  ctx.mn <- grow ctx.mn slots 0;
  ctx.m0 <- grow ctx.m0 (slots * cap) Packed.invalid;
  ctx.m1 <- grow ctx.m1 (slots * cap) Packed.invalid;
  ctx.slots <- slots;
  ctx.cap <- cap;
  ctx.w_max <- w_max;
  ctx.h_max <- h_max;
  Array.fill ctx.mn 0 slots 0;
  load ctx `A opts0;
  load ctx `B opts1

let refresh_slot ctx ~slot sols =
  let base = slot * ctx.cap in
  let ok = ref true in
  let i = ref 0 in
  List.iter
    (fun s ->
      if !i >= ctx.cap then ok := false
      else begin
        let w0 = Packed.pack0 s and w1 = Packed.pack1 s in
        if w0 < 0 || w1 < 0 then begin
          note_overflow ();
          ok := false
        end
        else begin
          ctx.m0.(base + !i) <- w0;
          ctx.m1.(base + !i) <- w1
        end;
        incr i
      end)
    sols;
  ctx.mn.(slot) <- (if !ok then !i else -1)

type verdict = Skip_pruned | Insert of { c0 : int; c1 : int } | Run_boxed

(* Three-way comparisons mirroring the engine's orders, on packed
   words.  [k] is a kept tuple, [c] the candidate; each returns the
   sign of [compare_x kept candidate]. *)

let cmp_int a b = if a < b then -1 else if a > b then 1 else 0
let cmp_bool a b = cmp_int (if a then 1 else 0) (if b then 1 else 0)

let inline_cmp ~depth_factor k0 k1 c0 c1 =
  let kk = (depth_factor * Packed.depth k0) + Packed.weighted k0 in
  let kc = (depth_factor * Packed.depth c0) + Packed.weighted c0 in
  match cmp_int kk kc with
  | 0 -> (
      match cmp_int (Packed.p_dis k1) (Packed.p_dis c1) with
      | 0 -> (
          match cmp_int (Packed.raw k0) (Packed.raw c0) with
          | 0 -> cmp_bool (Packed.has_pi c1) (Packed.has_pi k1)
          | c -> c)
      | c -> c)
  | c -> c

let formed_cmp ~depth_factor ~clocked ~discharge ~grounded k0 k1 c0 c1 =
  let fkey w0 w1 =
    (depth_factor * Packed.depth w0)
    + Packed.weighted w0
    + (if Packed.has_pi w1 then clocked else 0)
    + if grounded then 0 else discharge * Packed.p_dis w1
  in
  match cmp_int (fkey k0 k1) (fkey c0 c1) with
  | 0 -> (
      match cmp_int (Packed.p_dis k1) (Packed.p_dis c1) with
      | 0 -> (
          match cmp_int (Packed.raw k0) (Packed.raw c0) with
          | 0 -> cmp_bool (Packed.has_pi k1) (Packed.has_pi c1)
          | c -> c)
      | c -> c)
  | c -> c

let light_cmp k0 k1 c0 c1 =
  match cmp_int (Packed.weighted k0) (Packed.weighted c0) with
  | 0 -> (
      match cmp_int (Packed.depth k0) (Packed.depth c0) with
      | 0 -> (
          match cmp_int (Packed.p_dis k1) (Packed.p_dis c1) with
          | 0 -> (
              match cmp_int (Packed.raw k0) (Packed.raw c0) with
              | 0 -> cmp_bool (Packed.has_pi c1) (Packed.has_pi k1)
              | c -> c)
          | c -> c)
      | c -> c)
  | c -> c

let candidate ctx ~depth_factor ~clocked ~discharge ~grounded ~pareto ~op ~i0
    ~i1 =
  let a0 = ctx.a0.(i0) and a1 = ctx.a1.(i0) in
  let b0 = ctx.b0.(i1) and b1 = ctx.b1.(i1) in
  if a0 < 0 || b0 < 0 then Run_boxed
  else begin
    (* Word 1 first: the candidate's w/h live there, and a bound-reject
       — the most common skip — then never pays for the cost word. *)
    let c1 =
      match op with
      | `Or -> Packed.or1 a1 b1
      | `And_soi -> Packed.and_soi1 ~top1:a1 ~bottom1:b1
      | `And_soi_rev -> Packed.and_soi1 ~top1:b1 ~bottom1:a1
      | `And_bulk -> Packed.and_bulk1 ~top1:a1 ~bottom1:b1
    in
    if c1 < 0 then begin
      note_overflow ();
      Run_boxed
    end
    else begin
      let cw = Packed.w c1 and ch = Packed.h c1 in
      if cw > ctx.w_max || ch > ctx.h_max then
        (* The boxed path would bound-reject: one pruned tuple. *)
        Skip_pruned
      else begin
        let c0 =
          match op with
          | `Or -> Packed.or0 a0 b0
          | `And_soi -> Packed.and_soi0 ~discharge ~top0:a0 ~top1:a1 ~bottom0:b0
          | `And_soi_rev ->
              Packed.and_soi0 ~discharge ~top0:b0 ~top1:b1 ~bottom0:a0
          | `And_bulk -> Packed.and_bulk0 ~top0:a0 ~bottom0:b0
        in
        if c0 < 0 then begin
          note_overflow ();
          Run_boxed
        end
        else begin
        let slot = ((cw - 1) * ctx.h_max) + (ch - 1) in
        let n = ctx.mn.(slot) in
        if n < 0 then Run_boxed
        else begin
          let base = slot * ctx.cap in
          let depth_matters = depth_factor <> 0 in
          (* Pass 1: is the candidate dominated by a kept tuple?  The
             boxed [consider] rejects it outright. *)
          let dominated = ref false in
          let k = ref 0 in
          while (not !dominated) && !k < n do
            if
              Packed.dominates ~depth_matters
                ctx.m0.(base + !k)
                ctx.m1.(base + !k)
                c0 c1
            then dominated := true;
            incr k
          done;
          if !dominated then Skip_pruned
          else if n < pareto then
            (* The frontier has room: insertion changes it.  The packed
               words are exact and dominance is already decided, so the
               engine can build the survivor straight from them. *)
            Insert { c0; c1 }
          else begin
            (* Cap ranking: the candidate is a provable no-op iff it
               evicts nothing (dominates no kept tuple) and ranks
               outside the top [pareto] under every cap order; then the
               capped frontier equals the kept set exactly and the
               boxed path would count one truncated tuple.  The
               stable-sort tie rule: the candidate follows every
               kept tuple strictly smaller under the inline order, and
               precedes inline-equal ones; under the formed/light
               resorts of the inline-sorted list, a kept tuple ordered
               equal precedes the candidate iff it was strictly
               smaller inline. *)
            let evicts = ref false in
            let idx_inline = ref 0 in
            let idx_formed = ref 0 in
            let idx_light = ref 0 in
            let k = ref 0 in
            while (not !evicts) && !k < n do
              let k0 = ctx.m0.(base + !k) and k1 = ctx.m1.(base + !k) in
              if Packed.dominates ~depth_matters c0 c1 k0 k1 then
                evicts := true
              else begin
                let il = inline_cmp ~depth_factor k0 k1 c0 c1 < 0 in
                if il then incr idx_inline;
                (match
                   formed_cmp ~depth_factor ~clocked ~discharge ~grounded k0
                     k1 c0 c1
                 with
                | c when c < 0 -> incr idx_formed
                | 0 -> if il then incr idx_formed
                | _ -> ());
                if depth_matters then
                  match light_cmp k0 k1 c0 c1 with
                  | c when c < 0 -> incr idx_light
                  | 0 -> if il then incr idx_light
                  | _ -> ()
              end;
              incr k
            done;
            if
              (not !evicts)
              && !idx_inline >= pareto && !idx_formed >= pareto
              && ((not depth_matters) || !idx_light >= pareto)
            then Skip_pruned
            else Insert { c0; c1 }
          end
        end
      end
    end
  end
  end
