"""Expected bytes of ``render_json`` followed by ``render_table`` for report
shapes that no CLI golden in ``golden/`` covers: a symmetric pair and a dummy
sensor, a grand value of 0 (no ``share_of_total``), axioms checked on a
coalition sample (``"exhaustive": false``), and a sampled result without the
scenario models. ``test_report.TestPinnedReports`` builds each case; a change
to any text here is a change of report bytes, not a refactor.
"""

PINNED_REPORTS = {
    "twin-trace": """\
{
  "model_name": "twin",
  "metric": "trace",
  "horizon_samples": 4,
  "method": {
    "kind": "exact"
  },
  "observable": false,
  "grand_value": 5.995082,
  "efficiency_residual": 0.0,
  "per_sensor": [
    {
      "name": "a",
      "standalone": 2.997541,
      "shapley": 2.997541,
      "share_of_total": 0.5
    },
    {
      "name": "b",
      "standalone": 2.997541,
      "shapley": 2.997541,
      "share_of_total": 0.5
    },
    {
      "name": "z",
      "standalone": 0.0,
      "shapley": 0.0,
      "share_of_total": 0.0
    }
  ],
  "axiom_report": {
    "efficiency": {
      "residual": 0.0,
      "tolerance": 5.9950819999999995e-06,
      "passed": true
    },
    "symmetric_pairs": [
      {
        "sensors": [
          "a",
          "b"
        ],
        "shapley_gap": 0.0,
        "passed": true
      }
    ],
    "dummy_sensors": [
      {
        "name": "z",
        "shapley_magnitude": 0.0,
        "passed": true
      }
    ],
    "exhaustive": true,
    "passed": true
  }
}
model: twin    metric: trace    horizon samples: 4    method: exact

Sensor  Value Function  Standalone Value  Shapley Value
------  --------------  ----------------  -------------
a       trace           2.997541          2.997541
b       trace           2.997541          2.997541
z       trace           0                 0

grand value:         5.995082
efficiency residual: 0
fully observable:    no
axioms:              pass (symmetric pairs: (a, b); dummy sensors: z)
""",
    "twin-min-eig": """\
{
  "model_name": "twin",
  "metric": "min-eig",
  "horizon_samples": 4,
  "method": {
    "kind": "exact"
  },
  "observable": false,
  "grand_value": 0.0,
  "efficiency_residual": 0.0,
  "per_sensor": [
    {
      "name": "a",
      "standalone": 0.0,
      "shapley": 0.0
    },
    {
      "name": "b",
      "standalone": 0.0,
      "shapley": 0.0
    },
    {
      "name": "z",
      "standalone": 0.0,
      "shapley": 0.0
    }
  ],
  "axiom_report": {
    "efficiency": {
      "residual": 0.0,
      "tolerance": 1e-06,
      "passed": true
    },
    "symmetric_pairs": [
      {
        "sensors": [
          "a",
          "b"
        ],
        "shapley_gap": 0.0,
        "passed": true
      },
      {
        "sensors": [
          "a",
          "z"
        ],
        "shapley_gap": 0.0,
        "passed": true
      },
      {
        "sensors": [
          "b",
          "z"
        ],
        "shapley_gap": 0.0,
        "passed": true
      }
    ],
    "dummy_sensors": [
      {
        "name": "a",
        "shapley_magnitude": 0.0,
        "passed": true
      },
      {
        "name": "b",
        "shapley_magnitude": 0.0,
        "passed": true
      },
      {
        "name": "z",
        "shapley_magnitude": 0.0,
        "passed": true
      }
    ],
    "exhaustive": true,
    "passed": true
  }
}
model: twin    metric: min-eig    horizon samples: 4    method: exact

Sensor  Value Function  Standalone Value  Shapley Value
------  --------------  ----------------  -------------
a       min-eig         0                 0
b       min-eig         0                 0
z       min-eig         0                 0

grand value:         0
efficiency residual: 0
fully observable:    no
axioms:              pass (symmetric pairs: (a, b); (a, z); (b, z); dummy sensors: a, b, z)
""",
    "wide-trace": """\
{
  "model_name": "wide",
  "metric": "trace",
  "horizon_samples": 3,
  "method": {
    "kind": "exact"
  },
  "observable": true,
  "grand_value": 442.5625,
  "efficiency_residual": 5.684341886080802e-14,
  "per_sensor": [
    {
      "name": "s0",
      "standalone": 1.4375,
      "shapley": 1.4375000000000013,
      "share_of_total": 0.003248128795367889
    },
    {
      "name": "s1",
      "standalone": 1.3125,
      "shapley": 1.3124999999999987,
      "share_of_total": 0.00296568281316198
    },
    {
      "name": "s2",
      "standalone": 3.125,
      "shapley": 3.125000000000003,
      "share_of_total": 0.007061149555147585
    },
    {
      "name": "s3",
      "standalone": 1.4375,
      "shapley": 1.4375000000000013,
      "share_of_total": 0.003248128795367889
    },
    {
      "name": "s4",
      "standalone": 0.0,
      "shapley": 0.0,
      "share_of_total": 0.0
    },
    {
      "name": "s5",
      "standalone": 7.8125,
      "shapley": 7.8124999999999964,
      "share_of_total": 0.017652873887868938
    },
    {
      "name": "s6",
      "standalone": 15.375,
      "shapley": 15.375000000000002,
      "share_of_total": 0.03474085581132609
    },
    {
      "name": "s7",
      "standalone": 25.8125,
      "shapley": 25.8125,
      "share_of_total": 0.058325095325518994
    },
    {
      "name": "s8",
      "standalone": 39.125,
      "shapley": 39.12499999999999,
      "share_of_total": 0.08840559243044765
    },
    {
      "name": "s9",
      "standalone": 55.3125,
      "shapley": 55.31250000000001,
      "share_of_total": 0.12498234712611214
    },
    {
      "name": "s10",
      "standalone": 74.375,
      "shapley": 74.375,
      "share_of_total": 0.16805535941251235
    },
    {
      "name": "s11",
      "standalone": 96.3125,
      "shapley": 96.31250000000001,
      "share_of_total": 0.21762462928964837
    },
    {
      "name": "s12",
      "standalone": 121.125,
      "shapley": 121.12499999999993,
      "share_of_total": 0.27369015675751995
    }
  ],
  "axiom_report": {
    "efficiency": {
      "residual": 5.684341886080802e-14,
      "tolerance": 0.0004425625,
      "passed": true
    },
    "symmetric_pairs": [
      {
        "sensors": [
          "s0",
          "s3"
        ],
        "shapley_gap": 0.0,
        "passed": true
      }
    ],
    "dummy_sensors": [
      {
        "name": "s4",
        "shapley_magnitude": 0.0,
        "passed": true
      }
    ],
    "exhaustive": false,
    "passed": true
  }
}
model: wide    metric: trace    horizon samples: 3    method: exact

Sensor  Value Function  Standalone Value  Shapley Value
------  --------------  ----------------  -------------
s0      trace           1.4375            1.4375
s1      trace           1.3125            1.3125
s2      trace           3.125             3.125
s3      trace           1.4375            1.4375
s4      trace           0                 0
s5      trace           7.8125            7.8125
s6      trace           15.375            15.375
s7      trace           25.8125           25.8125
s8      trace           39.125            39.125
s9      trace           55.3125           55.3125
s10     trace           74.375            74.375
s11     trace           96.3125           96.3125
s12     trace           121.125           121.125

grand value:         442.5625
efficiency residual: 5.684341886e-14
fully observable:    yes
axioms:              pass (symmetric pairs: (s0, s3); dummy sensors: s4)
""",
    "twin-trace-sampled": """\
{
  "model_name": "twin",
  "metric": "trace",
  "horizon_samples": 4,
  "method": {
    "kind": "permutation-sampling",
    "num_permutations": 16,
    "seed": 3
  },
  "observable": false,
  "grand_value": 5.995082,
  "efficiency_residual": 1.7763568394002505e-15,
  "per_sensor": [
    {
      "name": "a",
      "standalone": 2.997541,
      "shapley": 2.997540999999999,
      "share_of_total": 0.49999999999999983
    },
    {
      "name": "b",
      "standalone": 2.997541,
      "shapley": 2.997540999999999,
      "share_of_total": 0.49999999999999983
    },
    {
      "name": "z",
      "standalone": 0.0,
      "shapley": 0.0,
      "share_of_total": 0.0
    }
  ],
  "axiom_report": null
}
model: twin    metric: trace    horizon samples: 4    method: permutation-sampling (16 permutations, seed 3)

Sensor  Value Function  Standalone Value  Shapley Value
------  --------------  ----------------  -------------
a       trace           2.997541          2.997541
b       trace           2.997541          2.997541
z       trace           0                 0

grand value:         5.995082
efficiency residual: 1.776356839e-15
fully observable:    no
""",
}
