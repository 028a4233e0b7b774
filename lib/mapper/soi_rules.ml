type sol = {
  w : int;
  h : int;
  value : Cost.value;
  p_dis : int;
  par_b : bool;
  has_pi : bool;
  disch : int;
  structure : structure;
}

and structure =
  | Leaf
  | Formed of sol
  | Parallel of sol * sol
  | Series of sol * sol
  | Series_flipped of sol * sol

let leaf_pi model =
  {
    w = 1;
    h = 1;
    value = Cost.regular_transistors model 1;
    p_dis = 0;
    par_b = false;
    has_pi = true;
    disch = 0;
    structure = Leaf;
  }

let leaf_gate model ~level ~carried ~carried_disch =
  let interface = Cost.regular_transistors model 1 in
  let value = Cost.combine carried interface in
  {
    w = 1;
    h = 1;
    value = { value with Cost.depth = max value.Cost.depth level };
    p_dis = 0;
    par_b = false;
    has_pi = false;
    disch = carried_disch;
    structure = Leaf;
  }

type op = Or | And_soi | And_bulk

(* Each rule is one scalar function per field.  [combine] builds the
   tuple from them, and the engine reads the same functions to reject
   a candidate before building it, so the two can never disagree. *)

(* [max] at type int: the polymorphic one compares through the runtime. *)
let imax (a : int) b = if a >= b then a else b

let width op a b =
  match op with Or -> a.w + b.w | And_soi | And_bulk -> imax a.w b.w

let height op a b =
  match op with Or -> imax a.h b.h | And_soi | And_bulk -> a.h + b.h

(* Discharge transistors a series junction commits: if the top has a
   parallel branch at its bottom, the junction below it can never reach
   ground, so it and all of the top's potential points are realised. *)
let committed op top =
  match op with
  | And_soi when top.par_b -> top.p_dis + 1
  | Or | And_soi | And_bulk -> 0

let weighted model op a b =
  a.value.Cost.weighted + b.value.Cost.weighted
  + (model.Cost.discharge * committed op a)

let depth a b = imax a.value.Cost.depth b.value.Cost.depth

let p_dis op a b =
  match op with
  | Or -> a.p_dis + b.p_dis
  | And_soi -> if a.par_b then b.p_dis else a.p_dis + 1 + b.p_dis
  | And_bulk -> 0

let par_b op _a b =
  match op with Or -> true | And_soi -> b.par_b | And_bulk -> false

let has_pi a b = a.has_pi || b.has_pi

let combine ?(flipped = false) model op a b =
  let committed = committed op a in
  {
    w = width op a b;
    h = height op a b;
    value =
      {
        Cost.weighted = weighted model op a b;
        depth = depth a b;
        raw = a.value.Cost.raw + b.value.Cost.raw + committed;
      };
    p_dis = p_dis op a b;
    par_b = par_b op a b;
    has_pi = has_pi a b;
    disch = a.disch + b.disch + committed;
    structure =
      (match op with
      | Or -> Parallel (a, b)
      | And_soi | And_bulk ->
          if flipped then Series_flipped (a, b) else Series (a, b));
  }

let combine_or model s1 s2 = combine model Or s1 s2
let combine_and_soi model ~top ~bottom = combine model And_soi top bottom
let combine_and_bulk model ~top ~bottom = combine model And_bulk top bottom

let compare_sols model a b =
  (* Cost key first, then the paper's p_dis tie-break, then raw size,
     then footless last: at an equal key the footed tuple is the one
     only this order can save (dominance already prefers footless on
     exact ties of every coordinate). *)
  match compare (Cost.key model a.value) (Cost.key model b.value) with
  | 0 -> (
      match compare a.p_dis b.p_dis with
      | 0 -> (
          match compare a.value.Cost.raw b.value.Cost.raw with
          | 0 -> compare b.has_pi a.has_pi
          | c -> c)
      | c -> c)
  | c -> c

let heuristic_swaps s1 s2 =
  match (s1.par_b, s2.par_b) with
  | true, false -> true
  | false, true | false, false -> false
  | true, true -> s1.p_dis >= s2.p_dis

let heuristic_and_order s1 s2 =
  if heuristic_swaps s1 s2 then (s2, s1) else (s1, s2)
