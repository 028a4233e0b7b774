let pairs () =
  let s = Gc.quick_stat () in
  [
    ("gc.minor_words", s.Gc.minor_words);
    ("gc.promoted_words", s.Gc.promoted_words);
    ("gc.major_words", s.Gc.major_words);
    ("gc.minor_collections", float_of_int s.Gc.minor_collections);
    ("gc.major_collections", float_of_int s.Gc.major_collections);
    ("gc.heap_words", float_of_int s.Gc.heap_words);
    ("gc.top_heap_words", float_of_int s.Gc.top_heap_words);
    ("gc.compactions", float_of_int s.Gc.compactions);
  ]

(* Per-request attribution: a snapshot taken on the domain that is about
   to execute a request, subtracted after it finishes.  The words come
   from [Gc.counters], which reads the calling domain's own counters;
   [Gc.quick_stat]'s word totals sum every domain on OCaml 5.1, so a
   second domain allocating during the request would be billed to it.
   Collection counts stay process-wide: every minor collection stops
   all domains, so each one genuinely interrupts the request. *)

type snap = {
  s_minor : float;
  s_promoted : float;
  s_major : float;
  s_minor_collections : int;
  s_major_collections : int;
}

let snap () =
  let minor, promoted, major = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    s_minor = minor;
    s_promoted = promoted;
    s_major = major;
    s_minor_collections = s.Gc.minor_collections;
    s_major_collections = s.Gc.major_collections;
  }

type delta = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_collections : int;
  major_collections : int;
}

let delta before =
  let now = snap () in
  let words f = int_of_float (Float.max 0.0 f) in
  {
    minor_words = words (now.s_minor -. before.s_minor);
    promoted_words = words (now.s_promoted -. before.s_promoted);
    major_words = words (now.s_major -. before.s_major);
    minor_collections = max 0 (now.s_minor_collections - before.s_minor_collections);
    major_collections = max 0 (now.s_major_collections - before.s_major_collections);
  }
