(* The runtime sampler: each pass publishes process-level gauges — GC
   heap and allocation rate from [Gc.quick_stat], plus whatever gauge
   sources upper tiers register (worker-pool utilization, snapshotter
   queue depth).  Passes run when a reader asks for the gauges (a
   Prometheus scrape, [/v1/debug/runtime]).  Sources are plain closures
   returning samples, so this module stays at the bottom of the
   dependency order while the server and store feed it. *)

type sample = {
  s_gauge : Metrics.gauge;
  s_labels : (string * string) list;
  s_value : float;
}

let samples_metric =
  Metrics.counter ~help:"Runtime sampler passes." "ekg_runtime_samples_total"
let heap_words_metric =
  Metrics.gauge ~help:"Major heap size in words." "ekg_runtime_gc_heap_words"
let top_heap_words_metric =
  Metrics.gauge ~help:"Largest major heap size reached, in words."
    "ekg_runtime_gc_top_heap_words"
let minor_collections_metric =
  Metrics.gauge ~help:"Minor collections since process start."
    "ekg_runtime_gc_minor_collections"
let major_collections_metric =
  Metrics.gauge ~help:"Major collection cycles since process start."
    "ekg_runtime_gc_major_collections"
let compactions_metric =
  Metrics.gauge ~help:"Heap compactions since process start." "ekg_runtime_gc_compactions"
let promoted_words_metric =
  Metrics.gauge ~help:"Words promoted from the minor heap since process start."
    "ekg_runtime_gc_promoted_words"
let alloc_rate_metric =
  Metrics.gauge ~help:"Allocation rate between the last two sampler passes."
    "ekg_runtime_alloc_rate_words_per_s"

type t = {
  obs : Metrics.t;
  lock : Mutex.t;  (* one pass at a time: passes update [last_*] *)
  mutable sources : (string * (unit -> sample list)) list;  (* insertion order *)
  mutable last_t : float;
  mutable last_alloc_words : float;
}

let create obs =
  { obs; lock = Mutex.create (); sources = []; last_t = 0.; last_alloc_words = 0. }

let register t name f =
  Mutex.protect t.lock (fun () ->
      t.sources <- List.remove_assoc name t.sources @ [ (name, f) ])

let gauge s_gauge s_value = { s_gauge; s_labels = []; s_value }

let gc_samples t ~now =
  let st = Gc.quick_stat () in
  (* words ever allocated: minor + major, minus the promoted words
     counted in both *)
  let alloc_words = st.minor_words +. st.major_words -. st.promoted_words in
  let rate =
    if t.last_t > 0. && now > t.last_t then
      Float.max 0. ((alloc_words -. t.last_alloc_words) /. (now -. t.last_t))
    else 0.
  in
  t.last_t <- now;
  t.last_alloc_words <- alloc_words;
  [
    gauge heap_words_metric (float_of_int st.heap_words);
    gauge top_heap_words_metric (float_of_int st.top_heap_words);
    gauge minor_collections_metric (float_of_int st.minor_collections);
    gauge major_collections_metric (float_of_int st.major_collections);
    gauge compactions_metric (float_of_int st.compactions);
    gauge promoted_words_metric st.promoted_words;
    gauge alloc_rate_metric rate;
  ]

let sample t =
  Mutex.protect t.lock (fun () ->
      let gc = gc_samples t ~now:(Clock.now_s ()) in
      let extra = List.concat_map (fun (_, f) -> try f () with _ -> []) t.sources in
      let all = gc @ extra in
      Metrics.record t.obs
        (List.map (fun s -> Metrics.Set (s.s_gauge, s.s_labels, s.s_value)) all
        @ [ Metrics.Add (samples_metric, [], 1.) ]);
      all)
