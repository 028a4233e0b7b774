(* Seeded fault injection.

   A chaos value decides, per (site, salt), whether to inject a fault at
   that point and which kind: an exception, a short delay, or a budget
   exhaustion.  The decision is a pure hash of (seed, site, salt) — no
   global counter — so a chaos-wrapped pipeline stays bit-identical at
   any worker count, and a fault observed at [-j 1] is observed at
   [-j N] in the same run.

   The per-instance [injected] counter is for end-of-run accounting
   (every fault the injector fired must be visible in the caller's
   report); it is an [Atomic.t] so injection points on worker domains
   need no locking, and it is deliberately not part of any
   deterministic output. *)

type fault = Raise | Delay | Exhaust

exception Injected of string * fault  (* site, fault *)

type t = {
  seed : int option;  (* None = disabled *)
  rate : float;  (* probability of a fault per point *)
  delay : float;  (* seconds slept by a Delay fault *)
  count : int Atomic.t;  (* faults fired so far, all kinds *)
}

let disabled =
  { seed = None; rate = 0.0; delay = 0.0; count = Atomic.make 0 }

let make ?(rate = 0.25) ?(delay = 0.002) ~seed () =
  if rate < 0.0 || rate > 1.0 then invalid_arg "Chaos.make: rate not in [0,1]";
  if delay < 0.0 then invalid_arg "Chaos.make: negative delay";
  { seed = Some seed; rate; delay; count = Atomic.make 0 }

let enabled c = c.seed <> None

let total_injected c = Atomic.get c.count

(* splitmix64 finalizer over the packed (seed, site, salt) key. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let decide c ~site ~salt =
  match c.seed with
  | None -> None
  | Some seed ->
      let h =
        mix
          (Int64.add
             (Int64.mul (Int64.of_int (Hashtbl.hash site)) 0x9e3779b97f4a7c15L)
             (Int64.add
                (Int64.mul (Int64.of_int salt) 0x2545f4914f6cdd1dL)
                (Int64.of_int seed)))
      in
      let u =
        Int64.to_float (Int64.logand h 0xFFFFFFL) /. 16_777_216.0
      in
      if u >= c.rate then None
      else
        Some
          (match Int64.to_int (Int64.logand (Int64.shift_right_logical h 24) 3L)
           with
          | 0 -> Raise
          | 1 -> Delay
          | _ -> Exhaust)

let fire c ?note ~site fault =
  Atomic.incr c.count;
  (match note with None -> () | Some f -> f site fault);
  match fault with
  | Delay -> if c.delay > 0.0 then Unix.sleepf c.delay
  | Raise -> raise (Injected (site, Raise))
  | Exhaust -> Budget.trip (Budget.Injected site)

let inject c ?note ~site ~salt () =
  match decide c ~site ~salt with
  | None -> ()
  | Some fault -> fire c ?note ~site fault

(* A point is an injector pre-bound to one chaos value, salt and note
   sink, so deep callees (the oracle stages) need only a site name. *)
type point = site:string -> unit

let no_point : point = fun ~site:_ -> ()

let point_for c ?note ~salt () : point =
  if not (enabled c) then no_point
  else fun ~site -> inject c ?note ~site ~salt ()
